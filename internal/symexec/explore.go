package symexec

import (
	"fmt"
	"strings"
)

// Explore runs the generational search over every switch sequence of
// the model (lengths 1..MaxHops), then probes stored paths under
// single-switch perturbations for switch-driven verdict flips. The
// result is deterministic: sequences are enumerated lexicographically,
// table snapshots are sorted, and the solver is seeded from defaults.
func (ex *Explorer) Explore() (*Result, error) {
	res := &Result{Checker: ex.Key, Complete: true}
	type storedPath struct {
		run     *pathRun
		probeOK bool // within the per-instance cross-switch probe budget
	}
	var stored []storedPath
	pairSeen := map[string]bool{}
	addPair := func(p FrontierPair) {
		if pairSeen[p.Cond] {
			return
		}
		pairSeen[p.Cond] = true
		res.Frontier = append(res.Frontier, p)
	}

	for L := 1; L <= ex.model.MaxHops; L++ {
		for _, seq := range sequences(ex.model.Switches, L) {
			res.Instances++
			paths, pairs, err := ex.exploreInstance(seq, res)
			if err != nil {
				return nil, err
			}
			for _, p := range pairs {
				addPair(p)
			}
			for i, r := range paths {
				stored = append(stored, storedPath{run: r, probeOK: i < crossSwitchPaths})
			}
		}
	}

	// Cross-instance frontier: re-execute a path's assignment under a
	// sequence that differs at exactly one hop. This is what flips
	// checkers whose verdict depends only on the switch sequence
	// (waypointing, service-chain, valley-free).
	for _, sp := range stored {
		if !sp.probeOK {
			continue
		}
		r := sp.run
		for k := range r.seq {
			for _, alt := range ex.model.Switches {
				if alt == r.seq[k] {
					continue
				}
				cond := fmt.Sprintf("hop%d switch %d->%d (len %d)", k, r.seq[k], alt, len(r.seq))
				if pairSeen[cond] {
					continue
				}
				seq2 := append([]uint32(nil), r.seq...)
				seq2[k] = alt
				r2, err := ex.run(seq2, r.asn)
				if err != nil {
					return nil, err
				}
				if r.violation() == r2.violation() {
					continue
				}
				conform, violate := r, r2
				if conform.violation() {
					conform, violate = r2, r
				}
				addPair(FrontierPair{
					Cond:           cond,
					Conform:        ex.witness(conform.seq, conform.asn),
					Violate:        ex.witness(violate.seq, violate.asn),
					ConformVerdict: conform.verdict(),
					ViolateVerdict: violate.verdict(),
				})
			}
		}
	}

	if len(res.Frontier) > maxFrontierPairs {
		res.Frontier = res.Frontier[:maxFrontierPairs]
	}
	for _, sp := range stored {
		r := sp.run
		conds := make([]string, len(r.cons))
		for i, c := range r.cons {
			conds[i] = c.String()
		}
		res.Paths = append(res.Paths, Path{
			Trace:     ex.witness(r.seq, r.asn),
			Verdict:   r.verdict(),
			Reports:   r.reports,
			FinalBlob: r.finalBlob,
			Conds:     conds,
		})
	}
	return res, nil
}

// exploreInstance runs the generational search for one switch sequence:
// execute, then for each recorded condition solve for the same prefix
// with that condition negated, enqueueing each satisfiable flip.
func (ex *Explorer) exploreInstance(seq []uint32, res *Result) ([]*pathRun, []FrontierPair, error) {
	vars := ex.varsFor(len(seq))
	defaults := make([]uint64, len(vars))
	for i := range vars {
		defaults[i] = vars[i].def
	}

	type cand struct {
		asn    []uint64
		parent int // index into paths; -1 for the seed
		flip   int // index of the negated condition in the parent
	}
	queue := []cand{{asn: defaults, parent: -1, flip: -1}}
	var paths []*pathRun
	seen := map[string]int{}
	flipSeen := map[string]bool{}
	var pairs []FrontierPair

	for qi := 0; qi < len(queue); qi++ {
		if len(paths) >= maxPathsPerInstance {
			res.Complete = false
			res.Notes = append(res.Notes, fmt.Sprintf("seq %v: path cap %d hit", seq, maxPathsPerInstance))
			break
		}
		c := queue[qi]
		r, err := ex.run(seq, c.asn)
		if err != nil {
			return nil, nil, err
		}
		idx, dup := seen[r.sig()]
		if !dup {
			idx = len(paths)
			paths = append(paths, r)
			seen[r.sig()] = idx
			for i := range r.cons {
				fkey := flipKey(r.cons, i)
				if flipSeen[fkey] {
					continue
				}
				flipSeen[fkey] = true
				target := make([]constraint, i+1)
				copy(target, r.cons[:i])
				target[i] = constraint{t: r.cons[i].t, want: !r.cons[i].want, site: r.cons[i].site}
				sol, status := solve(target, vars, defaults)
				switch status {
				case solveSat:
					res.FlipsSolved++
					queue = append(queue, cand{asn: sol, parent: idx, flip: i})
				case solveUnsat:
					res.FlipsUnsat++
				default:
					res.FlipsUnknown++
					res.Complete = false
				}
			}
		}
		// A solved flip whose execution lands on the other side of the
		// verdict is a frontier pair with its parent.
		if c.parent >= 0 {
			p, child := paths[c.parent], paths[idx]
			if p.violation() != child.violation() {
				conform, violate := p, child
				if conform.violation() {
					conform, violate = child, p
				}
				pairs = append(pairs, FrontierPair{
					Cond:           p.cons[c.flip].String(),
					Conform:        ex.witness(conform.seq, conform.asn),
					Violate:        ex.witness(violate.seq, violate.asn),
					ConformVerdict: conform.verdict(),
					ViolateVerdict: violate.verdict(),
				})
			}
		}
	}
	return paths, pairs, nil
}

// flipKey identifies a flip target (prefix + negated condition) so the
// same branch is not re-solved from every path sharing the prefix.
func flipKey(cons []constraint, i int) string {
	var b strings.Builder
	for _, c := range cons[:i] {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	b.WriteByte('!')
	b.WriteString(cons[i].String())
	return b.String()
}
