package optimizer

import (
	"testing"

	"repro/internal/cost"
)

const sevenWay = `
SELECT *
FROM catalog_returns cr, call_center cc, date_dim d, customer c,
     customer_address ca, customer_demographics cd, household_demographics hd
WHERE cr.cr_call_center_sk = cc.call_center_sk
  AND cr.cr_returned_date_sk = d.date_dim_sk
  AND cr.cr_returning_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.customer_address_sk
  AND c.c_current_cdemo_sk = cd.customer_demographics_sk
  AND c.c_current_hdemo_sk = hd.household_demographics_sk
  AND d.d_year = 1999
  AND d.d_moy = 11
  AND cd.cd_dep_count = 2`

// TestRunnerMatchesBest drives Runner.Best and the naive oracle across a
// grid of epp selectivities and requires bit-identical results: same
// plan signature, same cost, same cardinality. This is the contract the
// POSP sweep relies on now that the runner is the only enumerator.
func TestRunnerMatchesBest(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		epps [][2]string
	}{
		{"threeWay", threeWay, [][2]string{
			{"cs.cs_sold_date_sk", "d.date_dim_sk"},
			{"cs.cs_bill_customer_sk", "c.c_customer_sk"},
		}},
		{"sevenWay", sevenWay, [][2]string{
			{"cr.cr_returned_date_sk", "d.date_dim_sk"},
			{"cr.cr_returning_customer_sk", "c.c_customer_sk"},
			{"c.c_current_addr_sk", "ca.customer_address_sk"},
		}},
	}
	sels := []float64{1e-5, 1e-3, 0.05, 0.4, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, env, o := setup(t, tc.sql, tc.epps)
			r := o.NewRunner()
			sel := make([]float64, q.D())
			var walk func(d int)
			walk = func(d int) {
				if d < q.D() {
					for _, s := range sels {
						sel[d] = s
						walk(d + 1)
					}
					return
				}
				SetEPPSel(env, q, sel)
				want := o.OracleBest(env)
				got := r.Best(env)
				if want == nil || got == nil {
					t.Fatalf("nil plan at sel=%v (want=%v got=%v)", sel, want, got)
				}
				if ws, gs := want.Root.Signature(), got.Root.Signature(); ws != gs {
					t.Fatalf("plan mismatch at sel=%v:\n  best:   %s\n  runner: %s", sel, ws, gs)
				}
				if want.Cost != got.Cost || want.Rows != got.Rows {
					t.Fatalf("cost/rows mismatch at sel=%v: best=(%v,%v) runner=(%v,%v)",
						sel, want.Cost, want.Rows, got.Cost, got.Rows)
				}
				if err := got.Root.Validate(); err != nil {
					t.Fatalf("runner plan invalid at sel=%v: %v", sel, err)
				}
			}
			walk(0)
		})
	}
}

// TestRunnerPlanOutlivesArena checks the returned plan is a deep copy:
// reusing the runner (which recycles its arenas) must not corrupt plans
// handed out earlier.
func TestRunnerPlanOutlivesArena(t *testing.T) {
	q, env, o := setup(t, threeWay, [][2]string{
		{"cs.cs_sold_date_sk", "d.date_dim_sk"},
		{"cs.cs_bill_customer_sk", "c.c_customer_sk"},
	})
	r := o.NewRunner()
	SetEPPSel(env, q, []float64{1e-5, 1e-5})
	first := r.Best(env)
	sig := first.Root.Signature()
	for i := 0; i < 10; i++ {
		SetEPPSel(env, q, []float64{1, 1})
		r.Best(env)
	}
	if got := first.Root.Signature(); got != sig {
		t.Fatalf("earlier plan mutated by later Best calls: %s -> %s", sig, got)
	}
	if err := first.Root.Validate(); err != nil {
		t.Fatalf("earlier plan corrupted: %v", err)
	}
}

// TestJoinCostComposesCost checks the incremental JoinCost form agrees
// bitwise with the recursive Cost on a full plan tree.
func TestJoinCostComposesCost(t *testing.T) {
	q, env, o := setup(t, threeWay, [][2]string{
		{"cs.cs_sold_date_sk", "d.date_dim_sk"},
		{"cs.cs_bill_customer_sk", "c.c_customer_sk"},
	})
	SetEPPSel(env, q, []float64{1e-3, 0.2})
	p := o.Best(env)
	m := o.model
	root := p.Root
	l := m.Cost(root.Left, env)
	var r cost.Result
	if root.Right != nil && root.Join != nil {
		r = m.Cost(root.Right, env)
	}
	composed := m.JoinCost(root, l, r, env)
	direct := m.Cost(root, env)
	if composed != direct {
		t.Fatalf("JoinCost composition %v != recursive Cost %v", composed, direct)
	}
}
