package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// popprotoRow is the cheapest batch row (a few ms per batch).
func popprotoRow(t *testing.T) batchRow {
	t.Helper()
	for _, r := range batchRows {
		if r.Pkg == "popproto" {
			return r
		}
	}
	t.Fatal("no popproto batch row")
	return batchRow{}
}

func runRow(t *testing.T, row batchRow, seed int64) *scenario.Outcome {
	t.Helper()
	out, err := scenario.MustFind(row.Name).RunOpts(context.Background(), seed, scenario.Opts{N: row.N})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCommittedDigestsMatch(t *testing.T) {
	exp, err := LoadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	row := popprotoRow(t)
	if err := CheckBatch(exp, row, 1, runRow(t, row, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedExpectedCountsAsFailed(t *testing.T) {
	row := popprotoRow(t)
	out := runRow(t, row, 1)
	b, _ := json.Marshal(out)
	good := &Expected{Digests: map[string]map[string]string{row.Name: {"1": digest(b)}}}
	bad := &Expected{Digests: map[string]map[string]string{row.Name: {"1": strings.Repeat("0", 64)}}}

	r := &Run{metrics: map[string]Metric{}}
	r.Op(CheckBatch(good, row, 1, out))
	r.Op(CheckBatch(bad, row, 1, out))
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d; want the corrupted digest alone to fail", r.attempted, r.failed)
	}

	// A wrong analytic model fails the row too.
	row.Model = func(n int) int { return 1 }
	if err := CheckBatch(good, row, 1, out); err == nil {
		t.Fatal("a message count off the model passed")
	}
}

func TestCertificateCheck(t *testing.T) {
	f, err := os.Open("../" + certificatesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := ParseCertificates(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != catalogSize {
		t.Fatalf("parsed %d certificate rows, want %d", len(want), catalogSize)
	}
	sc := scenario.MustFind("ring/basic-lead/fifo")
	c, err := equilibrium.Certify(context.Background(), sc, certSeed, equilibrium.Options{Version: "dev"})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCert(want, c); err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]CertRow{}
	for k, v := range want {
		corrupt[k] = v
	}
	row := corrupt[sc.Name]
	row.Verdict = "exploitable"
	corrupt[sc.Name] = row
	if err := CheckCert(corrupt, c); err == nil {
		t.Fatal("a certificate against a corrupted verdict passed")
	}
	row = want[sc.Name]
	row.ArgMax = "rushing/equal k=8 t=2"
	corrupt[sc.Name] = row
	if err := CheckCert(corrupt, c); err == nil {
		t.Fatal("a certificate against a corrupted arg-max passed")
	}
}

func TestParseCertificatesSkipsNonRows(t *testing.T) {
	in := "| scenario | n | cands | trials | baseline | max gain | gain UB | verdict | arg-max | digest |\n" +
		"|---|---|---|---|---|---|---|---|---|---|\n" +
		"| `ring/x/fifo` | 16 | 1/1 | 704 | 0.0625 | 0.0142 | 0.0493 | fair | `identity` | `a2fe5137a388` |\n"
	got, err := ParseCertificates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := CertRow{Verdict: "fair", ArgMax: "identity", Digest: "a2fe5137a388", Trials: 704}
	if len(got) != 1 || got["ring/x/fifo"] != want {
		t.Fatalf("parsed %+v", got)
	}
	if _, err := ParseCertificates(strings.NewReader(strings.Replace(in, "704", "x", 1))); err == nil {
		t.Fatal("a malformed trials cell parsed")
	}
}

func TestRequireRowsFailsOnMissingRow(t *testing.T) {
	if err := requireRows([]string{"ring/a-lead/fifo", "ring/mar-basic-lead/fifo"}); err != nil {
		t.Fatal(err)
	}
	if err := requireRows([]string{"ring/no-such/fifo"}); err == nil || !strings.Contains(err.Error(), "ring/no-such/fifo") {
		t.Fatalf("missing row: err = %v", err)
	}
}
