package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/committee"
	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// batchRow is one fixed batch of the batch workload. Model, where set, is
// the exact analytic message count of one trial at size n.
type batchRow struct {
	Name  string
	N     int
	Pkg   string // the package whose code does the row's per-message work
	Model func(n int) int
}

func nSquared(n int) int    { return n * n }
func twoNSquared(n int) int { return 2 * n * n }
func committeeModel(n int) int {
	e, err := committee.New(n, committee.InnerALead)
	if err != nil {
		return -1
	}
	return e.MessagesPerTrial()
}

// batchRows is the batch workload's job list. The rows cover the FIFO and
// random scheduler paths, attack planning, the MAR interpreter, the
// committee runner, Shamir sharing (the costliest per message) and the
// message-free population model.
var batchRows = []batchRow{
	{"ring/a-lead/fifo", 256, "ring", nSquared},
	{"ring/basic-lead/random", 64, "ring", nSquared},
	{"ring/phase-lead/fifo", 64, "ring", twoNSquared},
	{"ring/a-lead/attack=randomized-c3", 256, "ring", nil},
	{"ring/mar-basic-lead/fifo", 64, "mardsl", nSquared},
	{"committee/a-lead/fifo", 4096, "committee", committeeModel},
	{"complete/shamir/fifo", 12, "fullnet", nil},
	{"popproto/ss-ring-le/pairwise", 16, "popproto", nil},
}

// catalogSize is the number of registered scenarios the certify workload
// expects; a smaller registry means a package failed to register its rows.
const catalogSize = 46

// certSeed is the seed CERTIFICATES.md was generated at.
const certSeed = 20180516

// rowKey renders a scenario name as a metric-name component.
func rowKey(name string) string {
	return strings.NewReplacer("/", ".", "=", "-").Replace(name)
}

// digest is the hex SHA-256 of a result's bytes.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// Expected holds the committed batch digests: Digests[row][seed] is the
// digest of json.Marshal(outcome) for that row at that seed.
type Expected struct {
	Contract string                       `json:"contract"`
	Seeds    []int64                      `json:"seeds"`
	Digests  map[string]map[string]string `json:"digests"`
}

// LoadExpected reads the committed digest table.
func LoadExpected(path string) (*Expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if e.Contract != scenario.SimContract {
		return nil, fmt.Errorf("%s was recorded under %s, the program is %s", path, e.Contract, scenario.SimContract)
	}
	if len(e.Seeds) == 0 {
		return nil, fmt.Errorf("%s lists no seeds", path)
	}
	for _, r := range batchRows {
		for _, s := range e.Seeds {
			if e.Digests[r.Name][strconv.FormatInt(s, 10)] == "" {
				return nil, fmt.Errorf("%s has no digest for %s at seed %d", path, r.Name, s)
			}
		}
	}
	return &e, nil
}

// CheckBatch checks one batch row's outcome: its bytes against the
// committed digest and, where the row has an exact model, its message
// count against the model. It returns nil when the outcome is correct.
func CheckBatch(e *Expected, r batchRow, seed int64, out *scenario.Outcome) error {
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	want := e.Digests[r.Name][strconv.FormatInt(seed, 10)]
	if got := digest(b); got != want {
		return fmt.Errorf("%s seed %d: outcome digest %.12s, want %.12s", r.Name, seed, got, want)
	}
	if r.Model != nil {
		if want := r.Model(r.N) * out.Trials; out.Messages != want {
			return fmt.Errorf("%s: %d messages over %d trials, model says %d", r.Name, out.Messages, out.Trials, want)
		}
	}
	return nil
}

// CertRow is one row of CERTIFICATES.md.
type CertRow struct {
	Verdict string
	ArgMax  string
	Digest  string
	Trials  int
}

// ParseCertificates reads the markdown certificate table into rows keyed by
// scenario name.
func ParseCertificates(r io.Reader) (map[string]CertRow, error) {
	out := make(map[string]CertRow)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		cells := strings.Split(sc.Text(), "|")
		if len(cells) != 12 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		cell := func(i int) string { return strings.Trim(strings.TrimSpace(cells[i]), "`") }
		trials, err := strconv.Atoi(cell(4))
		if err != nil {
			return nil, fmt.Errorf("certificate row %q: trials: %w", cell(1), err)
		}
		out[cell(1)] = CertRow{Verdict: cell(8), ArgMax: cell(9), Digest: cell(10), Trials: trials}
	}
	return out, sc.Err()
}

// CheckCert compares a certificate with its committed row: verdict,
// arg-max deviation, the arg-max digest prefix and the trials swept.
func CheckCert(want map[string]CertRow, c *equilibrium.Certificate) error {
	w, ok := want[c.Scenario]
	if !ok {
		return fmt.Errorf("%s: no committed certificate row", c.Scenario)
	}
	got := CertRow{Verdict: string(c.Verdict), ArgMax: "-", Digest: "-"}
	if best := c.Best(); best != nil {
		got.ArgMax, got.Digest = best.Candidate.String(), best.Digest[:12]
	}
	for _, r := range c.Candidates {
		got.Trials += r.Trials
	}
	if got != w {
		return fmt.Errorf("%s: certificate %+v, committed %+v", c.Scenario, got, w)
	}
	return nil
}

// requireRows fails set-up when a named row or part of the catalog is
// missing, so a forgotten registration cannot silently shrink a workload.
func requireRows(names []string) error {
	var missing []string
	for _, n := range names {
		if _, ok := scenario.Find(n); !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("scenario registry lacks %s", strings.Join(missing, ", "))
	}
	if got := len(scenario.All()); got != catalogSize {
		return fmt.Errorf("scenario registry holds %d rows, want %d", got, catalogSize)
	}
	return nil
}
