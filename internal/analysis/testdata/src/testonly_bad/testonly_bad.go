// Package testonly_bad is a fixture: declarations that no non-test
// code references. Its production root is Registry, a package-level
// variable, as a table of entry points would be.
package testonly_bad

// Registry is what production reaches.
var Registry = []func() int{Entry}

// Default makes Pool a used type; only its Grow method is test-only.
var Default Pool

// Entry grows a Buffer, so Buffer.Grow has a production caller.
func Entry() int {
	var b Buffer
	b.Grow(8)
	return b.n
}

// Buffer is used by Entry.
type Buffer struct{ n int }

// Grow is used by Entry.
func (b *Buffer) Grow(n int) { b.n += n }

// Pool is used by Default.
type Pool struct{ n int }

// Grow shares its name and signature with the used Buffer.Grow, which
// must not hide it.
func (p *Pool) Grow(n int) { p.n += n } // want "no non-test code references testonly_bad.Pool.Grow"

// Exported is a test-only exported function.
func Exported() int { return 1 } // want "no non-test code references testonly_bad.Exported"

// countdown is a test-only unexported helper; calling itself does not
// make it used.
func countdown(n int) int { // want "no non-test code references testonly_bad.countdown"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Scratch is a test-only type.
type Scratch struct{ v int } // want "no non-test code references testonly_bad.Scratch"
