// Package testonly_clean is a fixture: every declaration is reachable
// from Registry, through a call, an interface, or a generic
// constraint, or is kept by a marker.
package testonly_clean

import (
	"fmt"
	"strings"
)

// Registry is what production reaches.
var Registry = []any{Check, canonicalize[Name]}

// Celsius is used by Check.
type Celsius float64

// String is called only through fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// rangeError is used by Check.
type rangeError struct{ c Celsius }

// Error is called only through the error interface.
func (e *rangeError) Error() string { return "below absolute zero: " + e.c.String() }

// Check has a production caller, so its marker is stale and only
// -unused-ignores reports it.
//
//vet:ignore testonly stale: Registry references Check
func Check(c Celsius) error {
	if c < -273.15 {
		return &rangeError{c}
	}
	return nil
}

// canon is a generic constraint: its method's result is the type
// parameter.
type canon[Q any] interface{ Canonical() Q }

func canonicalize[Q canon[Q]](q Q) Q { return q.Canonical() }

// Name is used by Registry's instantiation of canonicalize.
type Name string

// Canonical satisfies canon[Name], whose signature mentions Q.
func (n Name) Canonical() Name { return Name(strings.ToLower(string(n))) }

// Oracle is kept for the tests of several packages.
//
//vet:ignore testonly fixture: an oracle the tests of several packages share
func Oracle() Celsius { return -273.15 }
