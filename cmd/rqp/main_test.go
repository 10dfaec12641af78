package main

import (
	"os"
	"strings"
	"testing"
)

// capture redirects stdout while f runs.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), ferr
}

func TestRunList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4D_Q91", "JOB_Q1a", "EQ", "6D_Q18"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %s", want)
		}
	}
}

func TestRunMissingCommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing command should error")
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"zzz"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nosuch", "list"}); err == nil {
		t.Fatal("bad flag should error")
	}
}

func TestRunDiscover(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-res", "6", "discover", "-query", "2D_Q91", "-alg", "spillbound", "-qa", "0.01,0.1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2D_Q91 via spillbound", "sub-optimality", "guarantee 10.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("discover output missing %q in:\n%s", want, out)
		}
	}
}

func TestRunDiscoverDefaultsToMidpoint(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-res", "5", "discover", "-query", "EQ", "-alg", "alignedbound"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "EQ via alignedbound") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunDiscoverErrors(t *testing.T) {
	if err := run([]string{"discover", "-query", "nosuch"}); err == nil {
		t.Fatal("unknown query should error")
	}
	if err := run([]string{"-res", "5", "discover", "-query", "EQ", "-qa", "0.1"}); err == nil {
		t.Fatal("wrong qa arity should error")
	}
	if err := run([]string{"-res", "5", "discover", "-query", "EQ", "-qa", "a,b"}); err == nil {
		t.Fatal("non-numeric qa should error")
	}
	if err := run([]string{"-res", "5", "discover", "-query", "EQ", "-alg", "nosuch"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	// Only flags may follow the subcommand; a stray positional argument
	// is named, not dropped with every flag after it.
	for _, args := range [][]string{
		{"discover", "2D_Q91"},
		{"discover", "2D_Q91", "-res", "6"},
		{"discover", "-res", "6", "2D_Q91", "-query", "EQ"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), `"2D_Q91"`) {
			t.Errorf("run(%q) = %v, want an error naming 2D_Q91", args, err)
		}
	}
}

func TestRunMSO(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-res", "6", "-stride", "2", "mso", "-query", "2D_Q91"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2D_Q91 via spillbound: MSOe", "ASO", "sweep:", "runtime:"} {
		if !strings.Contains(out, want) {
			t.Errorf("mso output missing %q in:\n%s", want, out)
		}
	}
}

func TestRunMSOExactSweep(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-res", "5", "-exact", "mso", "-query", "EQ", "-alg", "planbouquet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep: eager-exact") {
		t.Errorf("exact sweep not reported:\n%s", out)
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	_, err := capture(t, func() error {
		return run([]string{"-res", "5", "-cpuprofile", cpu, "-memprofile", mem, "discover", "-query", "EQ"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestRunExplain(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-res", "6", "explain", "-query", "2D_Q91", "-qa", "0.01,0.1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optimal plan", "pipelines (execution order)", "spill-node identification"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-res", "5", "fig9"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 9") || !strings.Contains(out, "6D_Q91") {
		t.Errorf("fig9 output wrong:\n%s", out)
	}
}
