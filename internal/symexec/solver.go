package symexec

import (
	"sort"

	"repro/internal/pipeline"
)

type solveStatus int

const (
	solveSat solveStatus = iota
	solveUnsat
	solveUnknown
)

// solve searches for an assignment satisfying the constraint set. It is
// a bounded DFS over per-variable candidate pools mined from the
// constraints' constants (each constant plus its neighbors, the
// variable's default, and the width extremes) — complete for the
// equality/ordering conditions compiled checkers produce, and honest
// about giving up: exhaustion within the pool is unsat, and blowing the
// node budget is unknown (the explorer then reports the space as not
// fully covered rather than silently proven).
//
// Variables not mentioned by any constraint keep their defaults, so
// witnesses stay minimal and stable across runs.
func solve(cons []constraint, vars []varInfo, defaults []uint64) ([]uint64, solveStatus) {
	// Normalize: a true conjunction (or false disjunction) splits into
	// its operands, and logical-not inverts the wanted truth value.
	// Splitting an entry-match conjunction into per-column equalities
	// lets the DFS check each column at its own variable's depth
	// instead of walking a blind cartesian product first.
	var norm []constraint
	var push func(c constraint)
	push = func(c constraint) {
		switch {
		case c.t.kind == tBin && c.t.op == pipeline.OpLAnd && c.want:
			push(constraint{t: c.t.x, want: true, site: c.site})
			push(constraint{t: c.t.y, want: true, site: c.site})
		case c.t.kind == tBin && c.t.op == pipeline.OpLOr && !c.want:
			push(constraint{t: c.t.x, want: false, site: c.site})
			push(constraint{t: c.t.y, want: false, site: c.site})
		case c.t.kind == tUn && c.t.op == pipeline.OpNot:
			push(constraint{t: c.t.x, want: !c.want, site: c.site})
		default:
			norm = append(norm, c)
		}
	}
	for _, c := range cons {
		push(c)
	}
	cons = norm

	used := map[int]bool{}
	pool := map[uint64]bool{}
	// Variables are ordered by first mention across the constraint
	// sequence, so early constraints become checkable (and prune) at
	// the shallowest possible DFS depth.
	var order []int
	for _, c := range cons {
		u := map[int]bool{}
		c.t.collectVars(u)
		ids := make([]int, 0, len(u))
		for id := range u {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if !used[id] {
				used[id] = true
				order = append(order, id)
			}
		}
		c.t.collectConsts(pool)
		// Constant constraints decide immediately.
		if len(u) == 0 && c.t.Eval(nil).Bool() != c.want {
			return nil, solveUnsat
		}
	}
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}

	// Candidate pools per variable.
	cands := make([][]uint64, len(order))
	for oi, vi := range order {
		v := vars[vi]
		set := map[uint64]bool{}
		add := func(x uint64) {
			x = maskW(v.width, x)
			if x >= v.min {
				set[x] = true
			}
		}
		add(defaults[vi])
		add(0)
		add(1)
		add(2)
		if v.width >= 64 {
			add(^uint64(0))
		} else {
			add(1<<uint(v.width) - 1)
		}
		for c := range pool {
			add(c)
			add(c - 1)
			add(c + 1)
		}
		list := make([]uint64, 0, len(set))
		for x := range set {
			list = append(list, x)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		if len(list) > maxCandidatesPerVar {
			list = list[:maxCandidatesPerVar]
		}
		cands[oi] = list
	}

	// Schedule each constraint at the deepest variable it mentions, so
	// partial assignments are checked as early as possible.
	consAt := make([][]int, len(order))
	for ci, c := range cons {
		u := map[int]bool{}
		c.t.collectVars(u)
		deepest := -1
		for id := range u {
			if p := pos[id]; p > deepest {
				deepest = p
			}
		}
		if deepest >= 0 {
			consAt[deepest] = append(consAt[deepest], ci)
		}
	}

	asn := append([]uint64(nil), defaults...)
	nodes := 0
	exceeded := false
	var dfs func(d int) bool
	dfs = func(d int) bool {
		if d == len(order) {
			return true
		}
		vi := order[d]
		for _, cv := range cands[d] {
			nodes++
			if nodes > solverNodes {
				exceeded = true
				return false
			}
			asn[vi] = cv
			ok := true
			for _, ci := range consAt[d] {
				if cons[ci].t.Eval(asn).Bool() != cons[ci].want {
					ok = false
					break
				}
			}
			if ok && dfs(d+1) {
				return true
			}
			if exceeded {
				return false
			}
		}
		asn[vi] = defaults[vi]
		return false
	}
	if dfs(0) {
		return asn, solveSat
	}
	if exceeded {
		return nil, solveUnknown
	}
	return nil, solveUnsat
}

func maskW(w int, v uint64) uint64 {
	if w >= 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}
