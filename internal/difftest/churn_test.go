package difftest

import (
	"math/rand"

	"repro/internal/indus/ast"
	"repro/internal/indus/eval"
)

// ChurnScalars rewrites the runner's scalar controls on switches 1..n the
// way a controller can between traces, on every backend: each, at random,
// is installed with val(width), deleted, cleared or left alone. A removed
// scalar reads its table's default, on the oracle too.
func (r *Runner) ChurnScalars(rng *rand.Rand, n uint32, val func(w int) uint64) error {
	for _, d := range r.c.Info.Prog.DeclsOfKind(ast.KindControl) {
		switch d.Type.(type) {
		case ast.DictType, ast.SetType:
			continue
		}
		for id := uint32(1); id <= n; id++ {
			switch op := rng.Intn(4); op {
			case 0:
				if err := r.InstallScalar(id, d.Name, val(widthOf(d.Type))); err != nil {
					return err
				}
			case 1, 2:
				es, ps := r.sw(id)
				es.Controls[d.Name] = eval.NewControlScalar(valueFor(d.Type, ps[0].Tables[d.Name].Default[0].V))
				for _, st := range ps {
					if op == 1 {
						st.Tables[d.Name].Delete(nil)
					} else {
						st.Tables[d.Name].Clear()
					}
				}
			}
		}
	}
	return nil
}
