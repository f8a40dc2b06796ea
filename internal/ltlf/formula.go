// Package ltlf implements Linear Temporal Logic over finite traces
// (LTLf) and its translation into Indus, the expressiveness result of
// §3.3 (Theorem 3.1): every LTLf property is expressible as an Indus
// checker. The translation follows the paper's recipe — the telemetry
// block populates an index array T and one boolean array per atomic
// predicate, and the checker block evaluates the first-order encoding of
// the formula (Figure 5) with for loops over T.
package ltlf

import (
	"fmt"
	"math/rand"
)

// Formula is an LTLf formula over named atomic predicates.
type Formula interface {
	fmt.Stringer
	holds(tr Trace, i int) bool
}

// Atom is an atomic predicate: true at an event iff the event carries it.
type Atom struct{ Name string }

// Not is logical negation.
type Not struct{ F Formula }

// And is conjunction.
type And struct{ L, R Formula }

// Or is disjunction.
type Or struct{ L, R Formula }

// Next (O φ) holds at i iff i+1 exists and φ holds there (the strong
// next of LTLf).
type Next struct{ F Formula }

// Until (φ U ψ) holds at i iff ψ holds at some j ≥ i within the trace
// and φ holds at every k with i ≤ k < j.
type Until struct{ L, R Formula }

// Eventually (◇ φ) is true U φ.
type Eventually struct{ F Formula }

// Globally (□ φ) is ¬◇¬φ.
type Globally struct{ F Formula }

func (a Atom) String() string       { return a.Name }
func (n Not) String() string        { return "!" + n.F.String() }
func (x And) String() string        { return "(" + x.L.String() + " & " + x.R.String() + ")" }
func (x Or) String() string         { return "(" + x.L.String() + " | " + x.R.String() + ")" }
func (n Next) String() string       { return "X(" + n.F.String() + ")" }
func (u Until) String() string      { return "(" + u.L.String() + " U " + u.R.String() + ")" }
func (e Eventually) String() string { return "F(" + e.F.String() + ")" }
func (g Globally) String() string   { return "G(" + g.F.String() + ")" }

// Event is one trace element: the set of atoms that hold.
type Event map[string]bool

// Trace is a finite, non-empty sequence of events.
type Trace []Event

// Holds evaluates the formula at position i of the trace under the
// standard LTLf semantics.
func Holds(f Formula, tr Trace, i int) bool { return f.holds(tr, i) }

func (a Atom) holds(tr Trace, i int) bool {
	if i < 0 || i >= len(tr) {
		return false
	}
	return tr[i][a.Name]
}

func (n Not) holds(tr Trace, i int) bool { return !n.F.holds(tr, i) }
func (x And) holds(tr Trace, i int) bool { return x.L.holds(tr, i) && x.R.holds(tr, i) }
func (x Or) holds(tr Trace, i int) bool  { return x.L.holds(tr, i) || x.R.holds(tr, i) }

func (n Next) holds(tr Trace, i int) bool {
	return i+1 < len(tr) && n.F.holds(tr, i+1)
}

func (u Until) holds(tr Trace, i int) bool {
	for j := i; j < len(tr); j++ {
		if u.R.holds(tr, j) {
			return true
		}
		if !u.L.holds(tr, j) {
			return false
		}
	}
	return false
}

func (e Eventually) holds(tr Trace, i int) bool {
	for j := i; j < len(tr); j++ {
		if e.F.holds(tr, j) {
			return true
		}
	}
	return false
}

func (g Globally) holds(tr Trace, i int) bool {
	for j := i; j < len(tr); j++ {
		if !g.F.holds(tr, j) {
			return false
		}
	}
	return true
}

// Atoms returns the distinct atom names appearing in the formula, in
// first-occurrence order.
func Atoms(f Formula) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case Atom:
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f.Name)
			}
		case Not:
			walk(f.F)
		case And:
			walk(f.L)
			walk(f.R)
		case Or:
			walk(f.L)
			walk(f.R)
		case Next:
			walk(f.F)
		case Until:
			walk(f.L)
			walk(f.R)
		case Eventually:
			walk(f.F)
		case Globally:
			walk(f.F)
		}
	}
	walk(f)
	return out
}

// Random generates a random formula of at most the given depth over the
// atom names, for property-based testing.
func Random(rng *rand.Rand, atoms []string, depth int) Formula {
	if depth <= 0 || rng.Intn(4) == 0 {
		return Atom{Name: atoms[rng.Intn(len(atoms))]}
	}
	switch rng.Intn(7) {
	case 0:
		return Not{F: Random(rng, atoms, depth-1)}
	case 1:
		return And{L: Random(rng, atoms, depth-1), R: Random(rng, atoms, depth-1)}
	case 2:
		return Or{L: Random(rng, atoms, depth-1), R: Random(rng, atoms, depth-1)}
	case 3:
		return Next{F: Random(rng, atoms, depth-1)}
	case 4:
		return Until{L: Random(rng, atoms, depth-1), R: Random(rng, atoms, depth-1)}
	case 5:
		return Eventually{F: Random(rng, atoms, depth-1)}
	default:
		return Globally{F: Random(rng, atoms, depth-1)}
	}
}
