package workload

import (
	"testing"
)

func TestSuiteLoadsAndValidates(t *testing.T) {
	specs := Suite()
	if len(specs) != 11 {
		t.Fatalf("suite has %d queries, want 11 (paper's Fig. 8 set)", len(specs))
	}
	for _, spec := range specs {
		q, err := spec.Load(1.0)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if q.D() != spec.D {
			t.Errorf("%s: D=%d, want %d", spec.Name, q.D(), spec.D)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestSuiteDimensionalities(t *testing.T) {
	want := map[string]int{
		"3D_Q15": 3, "3D_Q96": 3,
		"4D_Q7": 4, "4D_Q26": 4, "4D_Q27": 4, "4D_Q91": 4,
		"5D_Q19": 5, "5D_Q29": 5, "5D_Q84": 5,
		"6D_Q18": 6, "6D_Q91": 6,
	}
	for _, spec := range Suite() {
		if want[spec.Name] != spec.D {
			t.Errorf("%s: D=%d, want %d", spec.Name, spec.D, want[spec.Name])
		}
		delete(want, spec.Name)
	}
	if len(want) != 0 {
		t.Errorf("suite missing queries: %v", want)
	}
}

func TestQ91Family(t *testing.T) {
	fam := Q91Family()
	if len(fam) != 5 {
		t.Fatalf("family size %d, want 5 (2D..6D)", len(fam))
	}
	for i, spec := range fam {
		if spec.D != i+2 {
			t.Errorf("family[%d].D = %d, want %d", i, spec.D, i+2)
		}
		q, err := spec.Load(1.0)
		if err != nil {
			t.Fatal(err)
		}
		// All family members share the 7-relation Q91 body.
		if len(q.Relations) != 7 {
			t.Errorf("%s: %d relations, want 7", spec.Name, len(q.Relations))
		}
		if len(q.Joins) != 6 {
			t.Errorf("%s: %d joins, want 6", spec.Name, len(q.Joins))
		}
	}
	// Lower-D members' epps are prefixes of higher-D members'.
	q2, _ := fam[0].Load(1)
	q6, _ := fam[4].Load(1)
	for i, e := range q2.EPPs {
		if q6.EPPs[i] != e {
			t.Error("Q91 family epp ordering must nest")
		}
	}
}

func TestEQAndJOB(t *testing.T) {
	for _, spec := range []Spec{EQ(), JOBQ1a()} {
		q, err := spec.Load(1.0)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if q.D() != spec.D {
			t.Errorf("%s: D mismatch", spec.Name)
		}
	}
	if JOBQ1a().Schema != "imdb" {
		t.Error("JOB must run on the IMDB schema")
	}
}

func TestByName(t *testing.T) {
	spec, err := ByName("4D_Q91")
	if err != nil || spec.D != 4 {
		t.Fatalf("ByName(4D_Q91) = %+v, %v", spec, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
	names := Names()
	if len(names) < 14 {
		t.Errorf("Names() = %d entries, want ≥ 14", len(names))
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%s): %v", n, err)
		}
	}
}

func TestLoadBadSchema(t *testing.T) {
	s := EQ()
	s.Schema = "zzz"
	if _, err := s.Load(1); err == nil {
		t.Fatal("unknown schema should error")
	}
}

func TestLoadDMismatch(t *testing.T) {
	s := EQ()
	s.D = 3
	if _, err := s.Load(1); err == nil {
		t.Fatal("declared-D mismatch should error")
	}
}

func TestSpaceSmokeEQ(t *testing.T) {
	s, err := EQ().Space(1.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Grid.D != 2 || s.Grid.Res != 6 {
		t.Fatalf("space grid %dx%d", s.Grid.D, s.Grid.Res)
	}
	if s.NumContours() < 2 {
		t.Error("EQ space should have multiple contours")
	}
}

func TestSpaceDefaultResolution(t *testing.T) {
	spec := EQ()
	s, err := spec.Space(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Grid.Res != spec.Res {
		t.Fatalf("default res %d, want %d", s.Grid.Res, spec.Res)
	}
}

// Every suite query must produce a non-degenerate plan diagram: more
// than one POSP plan, and plans spilling on every dimension somewhere.
func TestSuiteSpacesAreInteresting(t *testing.T) {
	if testing.Short() {
		t.Skip("space sweeps in short mode")
	}
	for _, spec := range Suite() {
		if spec.D > 4 {
			continue // keep test runtime modest; 5D/6D covered by benches
		}
		s, err := spec.Space(1.0, 5)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if s.NumPlans() < 2 {
			t.Errorf("%s: degenerate POSP (%d plans)", spec.Name, s.NumPlans())
		}
	}
}
