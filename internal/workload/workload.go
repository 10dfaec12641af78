// Package workload defines the paper's evaluation query suite: the
// TPC-DS SPJ queries of §6.1 (named xD_Qz: x epps, TPC-DS query z), the
// Q91 dimensionality family of Fig. 9, the running example EQ, and JOB
// query 1a of §6.5. Each query mirrors the join-graph geometry (chain /
// star / branch) and epp count of the paper's instance; filters are
// chosen to keep dimension tables selective the way the originals do.
package workload

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// Spec declares one benchmark query.
type Spec struct {
	// Name is the paper's identifier, e.g. "4D_Q91".
	Name string
	// D is the number of error-prone predicates.
	D int
	// Schema selects the catalog: "tpcds" or "imdb".
	Schema string
	// SQL is the SPJ statement.
	SQL string
	// EPPs are the error-prone joins as qualified column pairs, in ESS
	// dimension order.
	EPPs [][2]string
	// Res is the default per-dimension grid resolution used by the
	// experiment harness (sized so D-dimensional sweeps stay tractable).
	Res int
}

// Load binds the spec against a fresh catalog at the given scale and
// returns the validated query.
func (s Spec) Load(scale float64) (*query.Query, error) {
	var (
		cat *catalog.Catalog
		err error
	)
	switch s.Schema {
	case "tpcds":
		cat, err = catalog.TPCDS(scale)
	case "imdb":
		cat, err = catalog.IMDB(scale)
	default:
		return nil, fmt.Errorf("workload: unknown schema %q", s.Schema)
	}
	if err != nil {
		return nil, err
	}
	q, err := sqlparse.Parse(s.Name, cat, s.SQL)
	if err != nil {
		return nil, err
	}
	for _, e := range s.EPPs {
		if err := sqlparse.MarkEPP(q, e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if q.D() != s.D {
		return nil, fmt.Errorf("workload: %s declares D=%d but marked %d epps", s.Name, s.D, q.D())
	}
	return q, nil
}

// Space builds the ESS search space for the spec with analytic
// statistics, default cost parameters, and the spec's resolution
// (overridable via res > 0).
func (s Spec) Space(scale float64, res int) (*ess.Space, error) {
	return s.SpaceWith(scale, ess.Config{Res: res})
}

// Bind loads the spec at the given scale and pairs the query with the
// costing environment (analytic statistics from the catalog) and the
// default-parameter cost model — the triple every ESS build and every
// snapshot load of the spec takes, so a loaded snapshot is verified
// against exactly what a fresh build would have used.
func (s Spec) Bind(scale float64) (*query.Query, *cost.Env, *cost.Model, error) {
	q, err := s.Load(scale)
	if err != nil {
		return nil, nil, nil, err
	}
	return q, optimizer.BuildEnv(q, stats.FromCatalog(q.Cat)), cost.NewModel(cost.DefaultParams()), nil
}

// SpaceWith is Space with full control over the ESS build configuration
// (sweep mode, θ, coarse stride, workers). A non-positive Res falls back
// to the spec's default resolution.
func (s Spec) SpaceWith(scale float64, cfg ess.Config) (*ess.Space, error) {
	q, env, model, err := s.Bind(scale)
	if err != nil {
		return nil, err
	}
	if cfg.Res <= 0 {
		cfg.Res = s.Res
	}
	return ess.Build(q, env, model, cfg)
}

// LazySpaceWith builds the demand-driven ESS source for the spec: only
// the grid corners are optimized up front, everything else settles as
// discovery touches it. Configuration mirrors SpaceWith.
func (s Spec) LazySpaceWith(scale float64, cfg ess.Config) (*ess.LazySpace, error) {
	q, env, model, err := s.Bind(scale)
	if err != nil {
		return nil, err
	}
	if cfg.Res <= 0 {
		cfg.Res = s.Res
	}
	return ess.BuildLazy(q, env, model, cfg)
}

// CheckMode rejects anything but the two ESS provider modes Source
// builds ("eager" and "lazy", the -ess-mode flag values), so a caller
// can refuse a bad configuration before it starts building.
func CheckMode(mode string) error {
	if mode != "eager" && mode != "lazy" {
		return fmt.Errorf("workload: unknown ESS mode %q (want eager or lazy)", mode)
	}
	return nil
}

// Source builds the spec's contour provider for the given mode: the
// eager full-sweep Space, or the demand-driven LazySpace that
// materializes contours as discovery climbs the budget ladder. It is
// the one place a mode name turns into a provider; the CLI, the
// experiment harness and the serving tier all come through here.
func (s Spec) Source(mode string, scale float64, cfg ess.Config) (ess.ContourSource, error) {
	if err := CheckMode(mode); err != nil {
		return nil, err
	}
	if mode == "lazy" {
		ls, err := s.LazySpaceWith(scale, cfg)
		if err != nil {
			return nil, err // not ls: a nil *LazySpace is a non-nil ContourSource
		}
		return ls, nil
	}
	sp, err := s.SpaceWith(scale, cfg)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// q91SQL is the shared 7-relation Q91 body (call-center returns join).
const q91SQL = `
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

// q91EPPs is the epp ordering used for the Q91 family; the first two
// match the paper's Fig. 7 axes (returns⋈date_dim, customer⋈address).
var q91EPPs = [][2]string{
	{"cr.cr_returned_date_sk", "d.date_dim_sk"},
	{"c.c_current_addr_sk", "ca.customer_address_sk"},
	{"cr.cr_returning_customer_sk", "c.c_customer_sk"},
	{"c.c_current_hdemo_sk", "hd.household_demographics_sk"},
	{"c.c_current_cdemo_sk", "cd.customer_demographics_sk"},
	{"cr.cr_call_center_sk", "cc.call_center_sk"},
}

// q91Spec builds the xD_Q91 member of the family.
func q91Spec(d, res int) Spec {
	return Spec{
		Name: fmt.Sprintf("%dD_Q91", d), D: d, Schema: "tpcds",
		SQL: q91SQL, EPPs: q91EPPs[:d], Res: res,
	}
}

// resFor are the default grid resolutions per dimensionality, sized so
// that a full POSP sweep plus an exhaustive MSO evaluation runs in
// seconds on a single core (see EXPERIMENTS.md).
var resFor = map[int]int{1: 64, 2: 24, 3: 12, 4: 8, 5: 6, 6: 5}

// EQ is the running example of the paper's introduction: a three-way
// join with two error-prone join predicates and a price filter.
func EQ() Spec {
	return Spec{
		Name: "EQ", D: 2, Schema: "tpcds",
		SQL: `
SELECT *
FROM store_sales ss, item i, customer c
WHERE ss.ss_item_sk = i.item_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND i.i_current_price < 100`,
		EPPs: [][2]string{
			{"ss.ss_item_sk", "i.item_sk"},
			{"ss.ss_customer_sk", "c.c_customer_sk"},
		},
		Res: resFor[2],
	}
}

// Suite returns the eleven TPC-DS benchmark queries of Figs. 8/10/11/13
// and Tables 2/4, in the paper's order.
func Suite() []Spec {
	return []Spec{
		{
			Name: "3D_Q15", D: 3, Schema: "tpcds",
			SQL: `
SELECT *
FROM catalog_sales cs, customer c, customer_address ca, date_dim d
WHERE cs.cs_bill_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.customer_address_sk
  AND cs.cs_sold_date_sk = d.date_dim_sk
  AND d.d_qoy = 1`,
			EPPs: [][2]string{
				{"cs.cs_bill_customer_sk", "c.c_customer_sk"},
				{"c.c_current_addr_sk", "ca.customer_address_sk"},
				{"cs.cs_sold_date_sk", "d.date_dim_sk"},
			},
			Res: resFor[3],
		},
		{
			Name: "3D_Q96", D: 3, Schema: "tpcds",
			SQL: `
SELECT *
FROM store_sales ss, household_demographics hd, time_dim t, store s
WHERE ss.ss_hdemo_sk = hd.household_demographics_sk
  AND ss.ss_sold_time_sk = t.time_dim_sk
  AND ss.ss_store_sk = s.store_sk
  AND t.t_hour = 8
  AND hd.hd_dep_count = 5`,
			EPPs: [][2]string{
				{"ss.ss_hdemo_sk", "hd.household_demographics_sk"},
				{"ss.ss_sold_time_sk", "t.time_dim_sk"},
				{"ss.ss_store_sk", "s.store_sk"},
			},
			Res: resFor[3],
		},
		{
			Name: "4D_Q7", D: 4, Schema: "tpcds",
			SQL: `
SELECT *
FROM store_sales ss, customer_demographics cd, date_dim d, item i, promotion p
WHERE ss.ss_cdemo_sk = cd.customer_demographics_sk
  AND ss.ss_sold_date_sk = d.date_dim_sk
  AND ss.ss_item_sk = i.item_sk
  AND ss.ss_promo_sk = p.promotion_sk
  AND d.d_year = 2000
  AND cd.cd_dep_count <= 3`,
			EPPs: [][2]string{
				{"ss.ss_cdemo_sk", "cd.customer_demographics_sk"},
				{"ss.ss_sold_date_sk", "d.date_dim_sk"},
				{"ss.ss_item_sk", "i.item_sk"},
				{"ss.ss_promo_sk", "p.promotion_sk"},
			},
			Res: resFor[4],
		},
		{
			Name: "4D_Q26", D: 4, Schema: "tpcds",
			SQL: `
SELECT *
FROM catalog_sales cs, customer_demographics cd, date_dim d, item i, promotion p
WHERE cs.cs_bill_cdemo_sk = cd.customer_demographics_sk
  AND cs.cs_sold_date_sk = d.date_dim_sk
  AND cs.cs_item_sk = i.item_sk
  AND cs.cs_promo_sk = p.promotion_sk
  AND d.d_year = 2000
  AND cd.cd_dep_count = 1`,
			EPPs: [][2]string{
				{"cs.cs_bill_cdemo_sk", "cd.customer_demographics_sk"},
				{"cs.cs_sold_date_sk", "d.date_dim_sk"},
				{"cs.cs_item_sk", "i.item_sk"},
				{"cs.cs_promo_sk", "p.promotion_sk"},
			},
			Res: resFor[4],
		},
		{
			Name: "4D_Q27", D: 4, Schema: "tpcds",
			SQL: `
SELECT *
FROM store_sales ss, customer_demographics cd, date_dim d, store s, item i
WHERE ss.ss_cdemo_sk = cd.customer_demographics_sk
  AND ss.ss_sold_date_sk = d.date_dim_sk
  AND ss.ss_store_sk = s.store_sk
  AND ss.ss_item_sk = i.item_sk
  AND d.d_year = 1999
  AND cd.cd_dep_count = 4`,
			EPPs: [][2]string{
				{"ss.ss_cdemo_sk", "cd.customer_demographics_sk"},
				{"ss.ss_sold_date_sk", "d.date_dim_sk"},
				{"ss.ss_store_sk", "s.store_sk"},
				{"ss.ss_item_sk", "i.item_sk"},
			},
			Res: resFor[4],
		},
		q91Spec(4, resFor[4]),
		{
			Name: "5D_Q19", D: 5, Schema: "tpcds",
			SQL: `
SELECT *
FROM store_sales ss, date_dim d, item i, customer c, customer_address ca, store s
WHERE ss.ss_sold_date_sk = d.date_dim_sk
  AND ss.ss_item_sk = i.item_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.customer_address_sk
  AND ss.ss_store_sk = s.store_sk
  AND d.d_moy = 11
  AND d.d_year = 1999
  AND i.i_manufact_id <= 20`,
			EPPs: [][2]string{
				{"ss.ss_sold_date_sk", "d.date_dim_sk"},
				{"ss.ss_item_sk", "i.item_sk"},
				{"ss.ss_customer_sk", "c.c_customer_sk"},
				{"c.c_current_addr_sk", "ca.customer_address_sk"},
				{"ss.ss_store_sk", "s.store_sk"},
			},
			Res: resFor[5],
		},
		{
			Name: "5D_Q29", D: 5, Schema: "tpcds",
			SQL: `
SELECT *
FROM store_sales ss, store_returns sr, catalog_sales cs, date_dim d, item i, store s
WHERE ss.ss_item_sk = sr.sr_item_sk
  AND sr.sr_customer_sk = cs.cs_bill_customer_sk
  AND ss.ss_sold_date_sk = d.date_dim_sk
  AND cs.cs_item_sk = i.item_sk
  AND ss.ss_store_sk = s.store_sk
  AND d.d_moy = 9`,
			EPPs: [][2]string{
				{"ss.ss_item_sk", "sr.sr_item_sk"},
				{"sr.sr_customer_sk", "cs.cs_bill_customer_sk"},
				{"ss.ss_sold_date_sk", "d.date_dim_sk"},
				{"cs.cs_item_sk", "i.item_sk"},
				{"ss.ss_store_sk", "s.store_sk"},
			},
			Res: resFor[5],
		},
		{
			Name: "5D_Q84", D: 5, Schema: "tpcds",
			SQL: `
SELECT *
FROM customer c, customer_address ca, customer_demographics cd,
     household_demographics hd, income_band ib, store_returns sr
WHERE c.c_current_addr_sk = ca.customer_address_sk
  AND c.c_current_cdemo_sk = cd.customer_demographics_sk
  AND c.c_current_hdemo_sk = hd.household_demographics_sk
  AND hd.hd_income_band_sk = ib.income_band_sk
  AND sr.sr_cdemo_sk = cd.customer_demographics_sk
  AND ca.ca_state_id = 5
  AND ib.ib_lower_bound <= 40000`,
			EPPs: [][2]string{
				{"c.c_current_addr_sk", "ca.customer_address_sk"},
				{"c.c_current_cdemo_sk", "cd.customer_demographics_sk"},
				{"c.c_current_hdemo_sk", "hd.household_demographics_sk"},
				{"hd.hd_income_band_sk", "ib.income_band_sk"},
				{"sr.sr_cdemo_sk", "cd.customer_demographics_sk"},
			},
			Res: resFor[5],
		},
		{
			Name: "6D_Q18", D: 6, Schema: "tpcds",
			SQL: `
SELECT *
FROM catalog_sales cs, customer_demographics cd, customer c,
     customer_address ca, date_dim d, item i, household_demographics hd
WHERE cs.cs_bill_cdemo_sk = cd.customer_demographics_sk
  AND cs.cs_bill_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.customer_address_sk
  AND cs.cs_sold_date_sk = d.date_dim_sk
  AND cs.cs_item_sk = i.item_sk
  AND c.c_current_hdemo_sk = hd.household_demographics_sk
  AND d.d_year = 1998
  AND cd.cd_dep_count = 1`,
			EPPs: [][2]string{
				{"cs.cs_bill_cdemo_sk", "cd.customer_demographics_sk"},
				{"cs.cs_bill_customer_sk", "c.c_customer_sk"},
				{"c.c_current_addr_sk", "ca.customer_address_sk"},
				{"cs.cs_sold_date_sk", "d.date_dim_sk"},
				{"cs.cs_item_sk", "i.item_sk"},
				{"c.c_current_hdemo_sk", "hd.household_demographics_sk"},
			},
			Res: resFor[6],
		},
		q91Spec(6, resFor[6]),
	}
}

// Q91Family returns the Fig. 9 dimensionality series 2D..6D over Q91.
func Q91Family() []Spec {
	out := make([]Spec, 0, 5)
	for d := 2; d <= 6; d++ {
		out = append(out, q91Spec(d, resFor[d]))
	}
	return out
}

// JOBQ1a is JOB benchmark query 1a (§6.5) over the IMDB-like schema,
// with the implicit cyclic predicates dropped as in the paper's
// work-around.
func JOBQ1a() Spec {
	return Spec{
		Name: "JOB_Q1a", D: 4, Schema: "imdb",
		SQL: `
SELECT *
FROM company_type ct, movie_companies mc, title t, movie_info_idx mi, info_type it
WHERE ct.ct_id = mc.mc_company_type_id
  AND mc.mc_movie_id = t.t_id
  AND t.t_id = mi.mi_idx_movie_id
  AND mi.mi_idx_info_type_id = it.it_id
  AND ct.ct_kind = 2
  AND it.it_info = 100
  AND mc.mc_note_kind <= 4`,
		EPPs: [][2]string{
			{"ct.ct_id", "mc.mc_company_type_id"},
			{"mc.mc_movie_id", "t.t_id"},
			{"t.t_id", "mi.mi_idx_movie_id"},
			{"mi.mi_idx_info_type_id", "it.it_id"},
		},
		Res: resFor[4],
	}
}

// ByName resolves any suite/family/example query by its paper name.
func ByName(name string) (Spec, error) {
	var all []Spec
	all = append(all, Suite()...)
	all = append(all, Q91Family()...)
	all = append(all, EQ(), JOBQ1a())
	for _, s := range all {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown query %q", name)
}

// Names lists the distinct query names available via ByName.
func Names() []string {
	seen := map[string]bool{}
	var out []string
	var all []Spec
	all = append(all, Suite()...)
	all = append(all, Q91Family()...)
	all = append(all, EQ(), JOBQ1a())
	for _, s := range all {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}
