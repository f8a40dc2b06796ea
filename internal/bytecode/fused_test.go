package bytecode_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// extraFormsSrc is Indus for the forms RandomProgram does not draw:
// unary minus, division, modulo, shifts, and an array read and write at
// an index known only at run time.
const extraFormsSrc = `
tele bit<8>[4] arr;
tele bit<8> x = 0;
header bit<8> h0;
{ }
{
  arr.push(h0);
  x = -h0 / (h0 % 3 + 1) << 1 >> 1;
  arr[x] = arr[h0];
}
{ }
`

// TestEveryOpcodeReached compiles the corpus, seeded RandomPrograms,
// extraFormsSrc and the hand-built parity programs, and requires every
// opcode Compile can emit to appear in one of them — the fused forms in
// the corpus itself — so a compiler change cannot silently stop emitting
// one, nor leave one that nothing exercises. The corpus Set's
// prologue is pinned too: every member's hop-count bump, and 21 of the 22
// scalar loads of a campus packet's three passes (routing-validity's
// checker keeps its is_leaf apply in the body).
func TestEveryOpcodeReached(t *testing.T) {
	count := func(into map[string]int, progs ...*pipeline.Program) {
		for _, p := range progs {
			for op, n := range bytecode.OpcodeCounts(mustCompile(t, p)) {
				into[op] += n
			}
		}
	}
	corpus, err := difftest.CompileCorpusSet()
	if err != nil {
		t.Fatal(err)
	}
	inCorpus, seen := map[string]int{}, map[string]int{}
	for _, c := range corpus {
		count(inCorpus, c.Prog)
		count(seen, c.Prog)
	}
	for _, op := range []string{"addassign", "applyassign", "in"} {
		if inCorpus[op] == 0 {
			t.Errorf("the corpus compiles to no %s", op)
		}
	}
	set := corpusSet(t, false)
	hops, _ := bytecode.PassPrologue(set, bytecode.BlockTelemetry)
	loads := 0
	for _, b := range []bytecode.Blocks{bytecode.HopBlocks(true, false), bytecode.HopBlocks(false, false), bytecode.HopBlocks(false, true)} {
		_, n := bytecode.PassPrologue(set, b)
		loads += n
	}
	if hops != 12 || loads != 21 {
		t.Errorf("corpus prologue: %d bumps in the telemetry pass, %d applies over a packet's passes; want 12 and 21", hops, loads)
	}
	for seed := 0; seed < 200; seed++ {
		c, err := difftest.CompileSource(difftest.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatal(err)
		}
		count(seen, c.Prog)
	}
	extra, err := difftest.CompileSource(extraFormsSrc)
	if err != nil {
		t.Fatal(err)
	}
	count(seen, extra.Prog, tortureProgram(), sinkProgram(false))
	for _, op := range bytecode.Opcodes() {
		if op == "" || seen[op] == 0 {
			t.Errorf("opcode %q: no program compiles to it", op)
		}
	}
}

// membershipSrc is `h in path` over a capacity-n path, set in telemetry
// and reported by the checker, in the shape of the loop-freedom checker.
func membershipSrc(n int) string {
	return fmt.Sprintf(`
tele bit<32>[%d] path;
tele bool seen = false;
header bit<32> h;
{ }
{
  if (h in path) {
    seen = true;
  }
  path.push(switch_id);
}
{
  if (seen) {
    reject;
    report(h);
  }
}
`, n)
}

// TestMembershipFusesCompileIn pins that the front end's expansion of
// `x in arr`, at every capacity from 1 to 8, compiles to exactly one opIn
// and none of the unrolled terms' instructions, and that the fused form
// runs equal to the oracle and the map reference on traces that revisit
// a switch and traces that do not.
func TestMembershipFusesCompileIn(t *testing.T) {
	for n := 1; n <= 8; n++ {
		src := membershipSrc(n)
		c, err := difftest.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		ops := bytecode.OpcodeCounts(mustCompile(t, c.Prog))
		if ops["in"] != 1 || ops["boolor"]+ops["booland"]+ops["lt"]+ops["eq"] != 0 {
			t.Errorf("capacity %d: %v, want one in and no unrolled term", n, ops)
		}
		h := difftest.NewHarness(t, src)
		flagged := 0
		for _, path := range [][]uint32{{1, 2, 3}, {1, 2, 1}, {5, 6, 7, 8, 9, 5}, {3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 2}} {
			for _, needle := range []uint64{0, 1, 2, 9} {
				trace := make([]difftest.HopSpec, len(path))
				for i, sw := range path {
					trace[i] = difftest.HopSpec{SW: sw, Headers: map[string]uint64{"h": needle}}
				}
				if reject, _ := h.RunBoth(trace); reject {
					flagged++
				}
			}
		}
		if flagged == 0 {
			t.Errorf("capacity %d: vacuous, no trace found its needle", n)
		}
	}
}

// inTerm is term i of compileIn's expansion over base, with its parts
// replaceable.
func inTerm(i int, count, slot, needle pipeline.Expr) pipeline.Expr {
	return bin(pipeline.OpLAnd, bin(pipeline.OpLt, c(8, uint64(i)), count), bin(pipeline.OpEq, slot, needle))
}

func orOf(terms ...pipeline.Expr) pipeline.Expr {
	or := terms[0]
	for _, t := range terms[1:] {
		or = bin(pipeline.OpLOr, or, t)
	}
	return or
}

// TestMembershipNearMisses compiles OR chains that are almost compileIn's
// expansion — terms out of index order, a second count field, a second
// needle, fewer and more terms than the capacity — and requires each to
// compile generically, with no opIn absorbing the chain, and to run equal
// to the map reference, counters included, resident and over the wire.
// A chain with one term too many keeps its first three, which are the
// expansion and fuse, as a sub-chain.
func TestMembershipNearMisses(t *testing.T) {
	const base = "hydra_header.path"
	count := f(base+".$count", 8)
	slot := func(i int) pipeline.Expr { return f(fmt.Sprintf("%s.%d", base, i), 32) }
	needle, other := f("local.needle", 32), f("local.other", 32)
	term := func(i int) pipeline.Expr { return inTerm(i, count, slot(i), needle) }
	cases := []struct {
		name    string
		chain   pipeline.Expr
		in      int  // opIn instructions
		generic bool // an OR left to the generic code
	}{
		{"compileIn's own", orOf(term(0), term(1), term(2)), 1, false},
		{"terms out of order", orOf(term(1), term(0), term(2)), 0, true},
		{"two count fields", orOf(term(0), inTerm(1, f("local.count", 8), slot(1), needle), term(2)), 0, true},
		{"two needles", orOf(term(0), term(1), inTerm(2, count, slot(2), other)), 0, true},
		{"fewer terms than the capacity", orOf(term(0), term(1)), 0, true},
		{"more terms than the capacity", orOf(term(0), term(1), term(2), term(3)), 1, true},
	}
	for _, tc := range cases {
		prog := &pipeline.Program{
			Name:           "near-miss",
			Tele:           []pipeline.TeleField{{Name: base, Width: 32, IsArray: true, Cap: 3}},
			HeaderBindings: map[string]string{"h": "hdr.h"},
			Telemetry: []pipeline.Op{
				pipeline.AssignOp{Dst: "local.needle", DstWidth: 32, Src: f("hdr.h", 32)},
				pipeline.AssignOp{Dst: "local.other", DstWidth: 32, Src: bin(pipeline.OpAdd, f("hdr.h", 32), c(32, 1))},
				pipeline.AssignOp{Dst: "local.count", DstWidth: 8, Src: c(8, 2)},
				pipeline.IfOp{Cond: tc.chain, Then: []pipeline.Op{
					pipeline.ReportOp{Args: []pipeline.Expr{f(string(pipeline.FieldSwitch), 32), needle}},
				}},
				pipeline.PushOp{Base: base, ElemWidth: 32, Cap: 3, Src: f(string(pipeline.FieldSwitch), 32)},
			},
		}
		ops := bytecode.OpcodeCounts(mustCompile(t, prog))
		if generic := ops["boolor"] + ops["jzor"]; ops["in"] != tc.in || (generic > 0) != tc.generic {
			t.Errorf("%s: %d opIn, %d generic ORs", tc.name, ops["in"], generic)
		}
		vm := linkOne(t, prog)
		reports := 0
		for _, path := range [][]uint32{{1, 2, 1}, {4, 5, 6, 5}, {1, 2, 3, 4, 2}, {7, 8, 9, 10, 9}} {
			for _, h := range []uint64{1, 5, 6, 9} {
				envs := func() []difftest.HopEnv {
					st := prog.NewState()
					out := make([]difftest.HopEnv, len(path))
					for i, sw := range path {
						out[i] = difftest.HopEnv{State: st, SwitchID: sw, Headers: map[string]pipeline.Value{"hdr.h": pipeline.B(32, h)}, PacketLen: 100}
					}
					return out
				}
				want, err := difftest.Reference{Prog: prog}.RunTrace(envs())
				if err != nil {
					t.Fatal(err)
				}
				reports += len(want.Reports)
				for _, shape := range []difftest.Shape{difftest.Resident, difftest.Wire} {
					got, err := vm.RunTrace([][]difftest.HopEnv{envs()}, shape)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[0], want) {
						t.Errorf("%s, path %v, h %d, shape %d:\n got %+v\nwant %+v", tc.name, path, h, shape, got[0], want)
					}
				}
			}
		}
		if reports == 0 {
			t.Errorf("%s: vacuous, nothing reported", tc.name)
		}
	}
}

// TestMembershipCountPastCapacity feeds a wire pass a blob whose array
// count, as decoded, exceeds the array's capacity: the unrolled terms
// test only the capacity's indices, so opIn's clamp must give the map
// reference's verdict, reports and blob whether or not the needle sits
// in the last slot.
func TestMembershipCountPastCapacity(t *testing.T) {
	c, err := difftest.CompileSource(membershipSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	prog := c.Prog
	var arr string
	for _, tf := range prog.Tele {
		if tf.IsArray {
			arr = tf.Name
		}
	}
	phv := pipeline.PHV{pipeline.FieldHops: pipeline.B(8, 4), pipeline.ArrayCount(arr): pipeline.B(8, 200)}
	for i := 0; i < 4; i++ {
		phv[pipeline.ArraySlot(arr, i)] = pipeline.B(32, uint64(10+i))
	}
	vm := linkOne(t, prog)
	rejects := 0
	for _, needle := range []uint64{13, 10, 14} {
		blob := prog.EncodeTele(phv)
		env := func() difftest.HopEnv {
			return difftest.HopEnv{State: prog.NewState(), SwitchID: 7, PacketLen: 100,
				Headers: map[string]pipeline.Value{prog.HeaderBindings["h"]: pipeline.B(32, needle)}}
		}
		want, err := difftest.Reference{Prog: prog}.RunHop(blob, env(), false, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := vm.RunHop(bytes.Clone(blob), env(), false, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("needle %d: vm %+v, map reference %+v", needle, got, want)
		}
		if want.Reject {
			rejects++
		}
	}
	if rejects != 2 {
		t.Errorf("%d of 3 needles rejected, want 2 (13 in the last slot, 10 in the first)", rejects)
	}
}

// initOnlySrc is difftest's member whose init block alone does anything.
const initOnlySrc = `
tele bit<8> t8_0 = 3;
sensor bit<8> s0 = 0;
header bit<8> h0;
control bit<8> c0;
{ t8_0 = h0 + c0; s0 = h0; }
{ }
{ }
`

// mustCompile compiles p to bytecode, failing t on error.
func mustCompile(t *testing.T, p *pipeline.Program) *bytecode.Prog {
	t.Helper()
	vp, err := bytecode.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return vp
}

// randomSets draws TestSetConformanceRandom's member lists (difftest's
// conformance_test.go) seed for seed, the same random stream consumed the
// same way, so the layout check sees the sets that test runs.
func randomSets(t *testing.T, seeds int) [][]bytecode.Member {
	var sets [][]bytecode.Member
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*104729 + 17))
		members := make([]bytecode.Member, 2+rng.Intn(4))
		for m := range members {
			src := difftest.RandomProgram(rng)
			switch rng.Intn(5) {
			case 0:
				src = strings.Replace(src, "header bit<8> h0;", `header bit<8> h0 @ "hdr.alt8";`, 1)
				src = strings.Replace(src, "header bit<16> h1;", `header bit<16> h1 @ "hdr.alt16";`, 1)
			case 1:
				src = initOnlySrc
			}
			c, err := difftest.CompileSource(src)
			if err != nil {
				t.Fatalf("seed %d member %d: %v", seed, m, err)
			}
			members[m] = bytecode.Member{Prog: mustCompile(t, c.Prog), CheckEveryHop: rng.Intn(3) == 0}
		}
		sets = append(sets, members)
	}
	return sets
}

// corpusSet links the 12 corpus checkers, then the extra sources, every
// other member checking at every hop when everyHop is set.
func corpusSet(t *testing.T, everyHop bool, extra ...string) *bytecode.Set {
	corpus, err := difftest.CompileCorpusSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range extra {
		c, err := difftest.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, c)
	}
	members := make([]bytecode.Member, len(corpus))
	for k, c := range corpus {
		rt := &compiler.Runtime{Prog: c.Prog, CheckEveryHop: everyHop && k%2 == 0}
		members[k] = rt.Member()
	}
	return bytecode.LinkSet(members)
}

// TestPHVBytes pins what a hop's state costs on the corpus set, where a
// slot is claimed to hold only bits: the PHV at 171 slots of 8 bytes,
// 1 368 bytes; BeginHop's reset run at 5 slots, 40 bytes; and
// BeginTrace's telemetry reset at 52 slots, 416 bytes. A slot that
// carries its width again (a 16-byte pipeline.Value) doubles all three;
// header slots back in the reset run (26 bound in the corpus) grow the
// second to 248 bytes.
func TestPHVBytes(t *testing.T) {
	set := corpusSet(t, false)
	c := set.NewCtx()
	slot := int(unsafe.Sizeof(c.PHV[0]))
	hop, trace := bytecode.ResetSlots(set)
	if n := len(c.PHV) * slot; n != 1368 {
		t.Errorf("the corpus PHV is %d slots, %d bytes; want 1368 bytes", len(c.PHV), n)
	}
	if n := hop * slot; n != 40 {
		t.Errorf("BeginHop copies %d slots, %d bytes; want 40 bytes", hop, n)
	}
	if n := trace * slot; n != 416 {
		t.Errorf("BeginTrace copies %d slots, %d bytes; want 416 bytes", trace, n)
	}
}

// hopInitSrc's init reads hop_count, which compiles to the carried count
// plus one, so the telemetry block's bump must stay behind it, in the
// body; its checker's scalar load is lifted.
const hopInitSrc = `
control bit<8> limit;
tele bit<8> born = 0;
tele bit<8> seen = 0;
{ born = hop_count; }
{ seen = hop_count - born; }
{
  if (seen > limit) {
    reject;
    report((born, seen));
  }
}
`

// sharedScalarSrc's telemetry block loads and reads quota, which its
// checker loads again: the telemetry block's bump and load are lifted, the
// checker's load stays in the body.
const sharedScalarSrc = `
control bit<8> quota;
tele bit<8> used = 0;
{ }
{ used = used + quota; }
{
  if (used > quota) {
    reject;
    report(used);
  }
}
`

// TestPrologueKeepsBlockedEntries compiles the two members whose prologue
// the rule cuts short and requires each to keep its blocked entry in the
// body, and to run equal to the oracle and the map reference, resident and
// over the wire, counters included, on traces of one to five hops, some of
// which it rejects.
func TestPrologueKeepsBlockedEntries(t *testing.T) {
	for _, tc := range []struct {
		name, src, control string
		want               [3]int // prologue lengths: init, telemetry, checker
	}{
		{"init reads hop_count", hopInitSrc, "limit", [3]int{0, 0, 1}},
		{"telemetry reads the checker's scalar", sharedScalarSrc, "quota", [3]int{0, 2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := difftest.CompileSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytecode.PrologueLens(mustCompile(t, c.Prog)); got != tc.want {
				t.Errorf("prologue %v, want %v", got, tc.want)
			}
			h := difftest.NewHarness(t, tc.src)
			for sw := uint32(1); sw <= 5; sw++ {
				h.InstallScalar(sw, tc.control, uint64(sw))
			}
			rejects := 0
			for n := 1; n <= 5; n++ {
				for first := uint32(1); first <= 5; first++ {
					trace := make([]difftest.HopSpec, n)
					for i := range trace {
						trace[i] = difftest.HopSpec{SW: (first+uint32(i))%5 + 1}
					}
					if reject, _ := h.RunBoth(trace); reject {
						rejects++
					}
				}
			}
			if rejects == 0 || rejects == 25 {
				t.Errorf("%d of 25 traces rejected, want some", rejects)
			}
		})
	}
}

// TestLinkedLayout runs the static layout check (layout_test.go) over the
// 12-member corpus Set with hopInitSrc and sharedScalarSrc linked after it,
// both placements, and over the random 2–5-member sets of
// TestSetConformanceRandom; then it breaks that Set five ways a linker
// could — a reset slot outside the run, a jump left unrebased, a scratch
// slot shared between members, a hop-count bump lifted over an init that
// reads it, routing-validity's checker is_leaf load lifted over its
// telemetry block — and two ways an emitter could — a slot stored at a
// wider width, a jump back to itself — and requires the check to refuse
// each.
func TestLinkedLayout(t *testing.T) {
	for _, everyHop := range []bool{false, true} {
		if err := bytecode.CheckLayout(corpusSet(t, everyHop, hopInitSrc, sharedScalarSrc)); err != nil {
			t.Errorf("corpus set, every-hop %v: %v", everyHop, err)
		}
	}
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	for i, members := range randomSets(t, seeds) {
		if err := bytecode.CheckLayout(bytecode.LinkSet(members)); err != nil {
			t.Errorf("random set %d: %v", i, err)
		}
	}
	for name, mutate := range bytecode.LayoutMutations {
		s := corpusSet(t, false, hopInitSrc, sharedScalarSrc)
		if !mutate(s) {
			t.Fatalf("%s: the corpus set gave the mutation nothing to break", name)
		}
		if err := bytecode.CheckLayout(s); err == nil {
			t.Errorf("%s: the layout check passed the broken set", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestScalarFoldCount is ROADMAP item 8's measurement: the corpus Set on
// the replay fabric's rows with ConfigureBenign's scalar controls, folded
// conservatively (FoldCount) over a campus packet's three passes — leaf 1
// {init, telemetry}, spine 3 {telemetry}, leaf 2 {telemetry, checker}. It
// pins how many of a packet's 157 in-stream dispatches specialising the
// rows' images could at most remove, and how many instructions it would
// find dead. A reject sets a bit of the pass's mask, an effect no
// specialisation removes, so it never folds.
func TestScalarFoldCount(t *testing.T) {
	corpus, err := difftest.CompileCorpusSet()
	if err != nil {
		t.Fatal(err)
	}
	set := corpusSet(t, false)
	index := map[string]int{}
	for k, p := range checkers.All {
		index[p.Key] = k
	}
	sws := experiments.ReplaySwitchInfos()
	rows := map[uint32][]*pipeline.State{}
	for _, sw := range sws {
		for _, c := range corpus {
			rows[sw.ID] = append(rows[sw.ID], c.Prog.NewState())
		}
	}
	if err := experiments.ConfigureBenign(sws, func(checker string, i int, fn func(*pipeline.State) error) error {
		return fn(rows[sws[i].ID][index[checker]])
	}); err != nil {
		t.Fatal(err)
	}
	fold, dead := 0, 0
	for _, p := range []struct {
		sw uint32
		b  bytecode.Blocks
	}{{1, bytecode.HopBlocks(true, false)}, {3, bytecode.HopBlocks(false, false)}, {2, bytecode.HopBlocks(false, true)}} {
		f, d, err := bytecode.FoldCount(set, p.b, rows[p.sw], p.sw)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("switch %d, blocks %03b: %d fold, %d dead", p.sw, p.b, f, d)
		fold, dead = fold+f, dead+d
	}
	t.Logf("a campus packet: at most %d of 157 in-stream dispatches fold; %d instructions dead", fold, dead)
	if fold != 16 || dead != 12 {
		t.Errorf("a campus packet: %d folding dispatches, %d dead instructions; want 16 and 12", fold, dead)
	}
}
