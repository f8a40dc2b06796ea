package difftest

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomProgram generates a random well-typed Indus program. Together
// with the Harness it fuzzes the whole chain: parser → type checker →
// (interpreter | compiler → pipeline) must agree on every program and
// trace. The emitted declarations are stable so callers can install
// state and bind headers by name: tele scalars t{8,16,32}_{0,1}, bools
// f0/f1, arrays arr0/arr1, sensors s0/s1, headers h0 (8-bit) and h1
// (16-bit), scalar control c0, dicts d0 (bit<8> key), d1
// ((bit<8>,bit<16>) key) and d2 (a five-column key of mixed widths, 80
// bits that a packed table holds in two key words), and set0 (bit<8>
// members).
func RandomProgram(rng *rand.Rand) string {
	return newProgGen(rng).generate()
}

type progGen struct {
	rng *rand.Rand
	b   strings.Builder

	// Variable pools by (what they are, their width); "b" is bool.
	teleBits map[int][]string // width -> names
	teleBool []string
	sensors  map[int][]string
	arrays   []genArray
	headers  map[int][]string
	ctrlBits map[int][]string // scalar control
	dicts    []genDict
	sets     []genSet

	loopVars map[int][]string // in-scope loop variables by width

	block int // 0 init, 1 telemetry, 2 checker
}

type genArray struct {
	name  string
	width int
	cap   int
}

type genDict struct {
	name      string
	keyWidths []int
	valWidth  int
}

type genSet struct {
	name      string
	keyWidths []int
}

var genWidths = []int{8, 16, 32}

func newProgGen(rng *rand.Rand) *progGen {
	return &progGen{
		rng:      rng,
		teleBits: map[int][]string{},
		sensors:  map[int][]string{},
		headers:  map[int][]string{},
		ctrlBits: map[int][]string{},
		loopVars: map[int][]string{},
	}
}

func (g *progGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }
func (g *progGen) width() int              { return genWidths[g.rng.Intn(len(genWidths))] }

// generate emits a full program plus the metadata the harness needs.
func (g *progGen) generate() string {
	n := 0
	decl := func(format string, args ...any) {
		fmt.Fprintf(&g.b, format+"\n", args...)
		n++
	}

	for _, w := range genWidths {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("t%d_%d", w, i)
			decl("tele bit<%d> %s = %d;", w, name, g.rng.Intn(1<<uint(minInt(w, 8))))
			g.teleBits[w] = append(g.teleBits[w], name)
		}
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("f%d", i)
		decl("tele bool %s = %t;", name, g.rng.Intn(2) == 0)
		g.teleBool = append(g.teleBool, name)
	}
	for i := 0; i < 2; i++ {
		w := g.width()
		capacity := 2 + g.rng.Intn(3)
		name := fmt.Sprintf("arr%d", i)
		decl("tele bit<%d>[%d] %s;", w, capacity, name)
		g.arrays = append(g.arrays, genArray{name: name, width: w, cap: capacity})
	}
	for i := 0; i < 2; i++ {
		w := g.width()
		name := fmt.Sprintf("s%d", i)
		decl("sensor bit<%d> %s = 0;", w, name)
		g.sensors[w] = append(g.sensors[w], name)
	}
	for i := 0; i < 2; i++ {
		w := genWidths[i%len(genWidths)]
		name := fmt.Sprintf("h%d", i)
		decl("header bit<%d> %s;", w, name)
		g.headers[w] = append(g.headers[w], name)
	}
	decl("control bit<8> c0;")
	g.ctrlBits[8] = append(g.ctrlBits[8], "c0")
	decl("control dict<bit<8>,bit<8>> d0;")
	g.dicts = append(g.dicts, genDict{name: "d0", keyWidths: []int{8}, valWidth: 8})
	decl("control dict<(bit<8>,bit<16>),bit<8>> d1;")
	g.dicts = append(g.dicts, genDict{name: "d1", keyWidths: []int{8, 16}, valWidth: 8})
	decl("control dict<(bit<8>,bit<16>,bit<32>,bit<8>,bit<16>),bit<8>> d2;")
	g.dicts = append(g.dicts, genDict{name: "d2", keyWidths: []int{8, 16, 32, 8, 16}, valWidth: 8})
	decl("control set<bit<8>> set0;")
	g.sets = append(g.sets, genSet{name: "set0", keyWidths: []int{8}})

	for blk := 0; blk < 3; blk++ {
		g.block = blk
		g.b.WriteString("{\n")
		for i := 0; i < 2+g.rng.Intn(4); i++ {
			g.stmt(2)
		}
		g.b.WriteString("}\n")
	}
	return g.b.String()
}

func (g *progGen) stmt(depth int) {
	choice := g.rng.Intn(10)
	switch {
	case choice < 4: // assignment to a tele/sensor scalar
		w := g.width()
		targets := g.teleBits[w]
		if g.block != 2 { // sensors are read-only in the checker
			targets = append(append([]string{}, targets...), g.sensors[w]...)
		}
		dst := g.pick(targets)
		op := "="
		if g.rng.Intn(3) == 0 {
			op = []string{"+=", "-="}[g.rng.Intn(2)]
		}
		fmt.Fprintf(&g.b, "%s %s %s;\n", dst, op, g.bitExpr(w, depth))

	case choice == 4: // bool assignment
		fmt.Fprintf(&g.b, "%s = %s;\n", g.pick(g.teleBool), g.boolExpr(depth))

	case choice == 5 && depth > 0: // if
		fmt.Fprintf(&g.b, "if (%s) {\n", g.boolExpr(depth-1))
		g.stmt(depth - 1)
		if g.rng.Intn(2) == 0 {
			g.b.WriteString("} else {\n")
			g.stmt(depth - 1)
		}
		g.b.WriteString("}\n")

	case choice == 6: // push
		a := g.arrays[g.rng.Intn(len(g.arrays))]
		fmt.Fprintf(&g.b, "%s.push(%s);\n", a.name, g.bitExpr(a.width, depth-1))

	case choice == 7 && depth > 0: // for loop
		a := g.arrays[g.rng.Intn(len(g.arrays))]
		lv := fmt.Sprintf("v%d", g.rng.Intn(1000))
		fmt.Fprintf(&g.b, "for (%s in %s) {\n", lv, a.name)
		g.loopVars[a.width] = append(g.loopVars[a.width], lv)
		g.stmt(depth - 1)
		g.loopVars[a.width] = g.loopVars[a.width][:len(g.loopVars[a.width])-1]
		g.b.WriteString("}\n")

	case choice == 8 && g.block > 0: // report
		fmt.Fprintf(&g.b, "report(%s);\n", g.bitExpr(8, 0))

	case choice == 9 && g.block == 2: // reject
		fmt.Fprintf(&g.b, "if (%s) { reject; }\n", g.boolExpr(depth-1))

	default:
		g.b.WriteString("pass;\n")
	}
}

// bitExpr emits an expression of type bit<w>.
func (g *progGen) bitExpr(w, depth int) string {
	if depth <= 0 {
		return g.bitLeaf(w)
	}
	switch g.rng.Intn(8) {
	case 0:
		op := []string{"+", "-", "*", "&", "|", "^"}[g.rng.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", g.bitExpr(w, depth-1), op, g.bitExpr(w, depth-1))
	case 1:
		return fmt.Sprintf("abs(%s - %s)", g.bitExpr(w, depth-1), g.bitExpr(w, depth-1))
	case 2:
		fn := []string{"max", "min"}[g.rng.Intn(2)]
		return fmt.Sprintf("%s(%s, %s)", fn, g.bitExpr(w, depth-1), g.bitExpr(w, depth-1))
	case 3:
		return "~" + g.bitLeaf(w)
	case 4:
		if w == 8 { // dict lookup with matching value width
			d := g.dicts[g.rng.Intn(len(g.dicts))]
			keys := make([]string, len(d.keyWidths))
			for i, kw := range d.keyWidths {
				keys[i] = g.bitExpr(kw, 0)
			}
			if len(keys) == 1 {
				return fmt.Sprintf("%s[%s]", d.name, keys[0])
			}
			return fmt.Sprintf("%s[(%s)]", d.name, strings.Join(keys, ", "))
		}
		return g.bitLeaf(w)
	case 5:
		// Constant-index array read of a matching-width array.
		for _, a := range g.arrays {
			if a.width == w {
				return fmt.Sprintf("%s[%d]", a.name, g.rng.Intn(a.cap))
			}
		}
		return g.bitLeaf(w)
	default:
		return g.bitLeaf(w)
	}
}

func (g *progGen) bitLeaf(w int) string {
	pools := [][]string{g.teleBits[w], g.headers[w], g.sensors[w], g.ctrlBits[w], g.loopVars[w]}
	var candidates []string
	for _, p := range pools {
		candidates = append(candidates, p...)
	}
	// Builtins by width.
	switch w {
	case 32:
		candidates = append(candidates, "switch_id", "packet_length")
	case 8:
		candidates = append(candidates, "hop_count")
	}
	if g.rng.Intn(4) == 0 || len(candidates) == 0 {
		return fmt.Sprintf("%d", g.rng.Intn(200))
	}
	return g.pick(candidates)
}

func (g *progGen) boolExpr(depth int) string {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return g.pick(g.teleBool)
		case 1:
			return []string{"true", "false"}[g.rng.Intn(2)]
		case 2:
			return "last_hop"
		default:
			return "first_hop"
		}
	}
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return "!" + g.boolExpr(depth-1)
	case 3:
		w := g.width()
		op := []string{"==", "!=", "<", "<=", ">", ">="}[g.rng.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", g.bitExpr(w, depth-1), op, g.bitExpr(w, depth-1))
	case 4:
		s := g.sets[g.rng.Intn(len(g.sets))]
		return fmt.Sprintf("(%s in %s)", g.bitExpr(s.keyWidths[0], 0), s.name)
	case 5:
		a := g.arrays[g.rng.Intn(len(g.arrays))]
		return fmt.Sprintf("(%s in %s)", g.bitExpr(a.width, 0), a.name)
	default:
		return g.boolExpr(0)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
