package analysis

import "go/types"

// FactStore holds whole-closure results keyed by computation name, so
// a reachability pass over thousands of functions is computed once per
// run and shared by the module-wide rules that need it.
type FactStore struct {
	sets map[string]map[*types.Func]Witness
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{sets: make(map[string]map[*types.Func]Witness)}
}

// ReachSet memoizes a reachability closure under the given name: the
// first caller computes it via build, later callers get the stored
// result. This is the mechanism by which maporder, wallclock and
// seedflow share one wall-clock closure and one sink closure.
func (s *FactStore) ReachSet(name string, build func() map[*types.Func]Witness) map[*types.Func]Witness {
	if set, ok := s.sets[name]; ok {
		return set
	}
	set := build()
	s.sets[name] = set
	return set
}
