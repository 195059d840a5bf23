package scenario

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// registry holds every registered scenario, keyed by name. The catalog is
// built at init time, but runtime registration (compiled MAR specs, see
// RegisterRingScenario) can extend it afterwards; regMu guards both maps
// so late registrations stay safe against concurrent catalog reads.
var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
	names    []string
)

// register adds a scenario to the catalog, panicking on duplicate or
// malformed entries: init-time registration of a broken catalog should
// fail loudly.
func register(s Scenario) {
	if err := tryRegister(s); err != nil {
		panic(err.Error())
	}
}

// tryRegister validates and inserts one scenario, the error-returning
// core shared by init-time registration and the runtime hooks.
func tryRegister(s Scenario) error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: registering unnamed scenario")
	case s.Topology == "" || s.Protocol == "" || s.Scheduler == "":
		return fmt.Errorf("scenario: %s missing topology/protocol/scheduler", s.Name)
	case s.N < 2 || s.Trials < 1:
		return fmt.Errorf("scenario: %s has bad defaults n=%d trials=%d", s.Name, s.N, s.Trials)
	case s.chunks == nil:
		return fmt.Errorf("scenario: %s has no chunked job", s.Name)
	}
	if s.MinN == 0 {
		s.MinN = 2
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("scenario: duplicate registration of %s", s.Name)
	}
	registry[s.Name] = s
	names = append(names, s.Name)
	sort.Strings(names)
	return nil
}

// All returns every registered scenario, sorted by name.
func All() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	return out
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// MustFind is Find for callers with a static name (the harness experiments);
// it panics on a missing entry.
func MustFind(name string) Scenario {
	s, ok := Find(name)
	if !ok {
		panic(fmt.Sprintf("scenario: no registered scenario %q", name))
	}
	return s
}

// Match returns the scenarios whose name matches the regular expression, in
// name order. An empty pattern matches everything.
func Match(pattern string) ([]Scenario, error) {
	if pattern == "" {
		return All(), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("scenario: bad match pattern: %w", err)
	}
	var out []Scenario
	for _, s := range All() {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	return out, nil
}

// Descriptor is the exported, serializable description of a scenario.
type Descriptor struct {
	Name      string `json:"name"`
	Topology  string `json:"topology"`
	Protocol  string `json:"protocol"`
	Scheduler string `json:"scheduler"`
	Attack    string `json:"attack,omitempty"`
	N         int    `json:"n"`
	MinN      int    `json:"min_n"`
	Trials    int    `json:"trials"`
	K         int    `json:"k,omitempty"`
	Target    int64  `json:"target,omitempty"`
	Uniform   bool   `json:"uniform"`
	Note      string `json:"note,omitempty"`
}

// Describe returns the scenario's catalog entry.
func (s Scenario) Describe() Descriptor {
	return Descriptor{
		Name:      s.Name,
		Topology:  s.Topology,
		Protocol:  s.Protocol,
		Scheduler: s.Scheduler,
		Attack:    s.Attack,
		N:         s.N,
		MinN:      s.MinN,
		Trials:    s.Trials,
		K:         s.K,
		Target:    s.Target,
		Uniform:   s.Uniform,
		Note:      s.Note,
	}
}
