package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnascale/internal/cloud"
	"rnascale/internal/faults"
	"rnascale/internal/pilot"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRunsFile pins one digest line per artifact per config; a diff
// names exactly which artifact of which run moved.
const goldenRunsFile = "testdata/run_artifacts.golden"

// goldenConfigs is the tiny-profile matrix whose artifacts are pinned
// across commits: every scheme/pattern, a serverless stage, a spot +
// fault run, a deadline cut, a stage failure and the two-condition
// consensus path.
func goldenConfigs(t *testing.T, ds *simdata.Dataset) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	base := tinyConfig()
	s1 := base
	s1.Scheme, s1.Pattern = S1, DistributedStatic
	conv := base
	conv.Pattern = Conventional
	fn := base
	fn.Assemblers = []string{"ray", "abyss"}
	fn.Backends = StageBackends{PB: cloud.Serverless}
	spot := base
	spot.Assemblers = []string{"ray", "abyss"}
	spot.Backends = StageBackends{PA: cloud.Spot, PB: cloud.Spot, PC: cloud.Spot}
	plan, err := faults.ParseSpec("crash:p=0.25,after=60,window=1200;unitflake:p=0.4,n=1")
	if err != nil {
		t.Fatal(err)
	}
	spot.FaultPlan, spot.FaultSeed = plan, 3
	cut := base
	cut.Deadline = 4500 * vclock.Second
	// A flaky PB with no retries left fails its stage: pins the FAILED
	// row and the failure teardown.
	failed := base
	failed.Assemblers = []string{"ray", "abyss"}
	flake, err := faults.ParseSpec("unitflake:p=1,n=1")
	if err != nil {
		t.Fatal(err)
	}
	failed.FaultPlan, failed.FaultSeed = flake, 5
	failed.Retry = StageRetryPolicies{PA: pilot.DefaultRetryPolicy(), PB: pilot.RetryPolicy{Backoff: vclock.Second}, PC: pilot.DefaultRetryPolicy()}
	exprB := append([]float64(nil), ds.Expression...)
	exprB[0] *= 10
	condB, err := ds.Resample(exprB, ds.Profile.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	cons := base
	cons.ConsensusMerge = true
	cons.ConditionB = &condB
	return []struct {
		name string
		cfg  Config
	}{
		{"s2-dynamic", base},
		{"s1-static", s1},
		{"conventional", conv},
		{"serverless-pb", fn},
		{"spot-faults", spot},
		{"deadline-cut", cut},
		{"pb-failed", failed},
		{"condb-consensus", cons},
	}
}

// reportText renders the report fields a refactor must not move: the
// summary, every stage row at full precision, the outcome and the run
// error.
func reportText(rep *Report, runErr error) string {
	var b strings.Builder
	b.WriteString(rep.Summary())
	for _, s := range rep.Stages {
		fmt.Fprintf(&b, "%s|%s|%v|%v|%s\n", s.Name, s.Pilot, float64(s.Start), float64(s.End), s.Note)
	}
	fmt.Fprintf(&b, "ttc=%v cost=%v outcome=%s nodes=%d\n", float64(rep.TTC), rep.CostUSD, rep.Outcome, rep.AssemblyNodes)
	if runErr != nil {
		fmt.Fprintf(&b, "err=%v\n", runErr)
	}
	return b.String()
}

// TestGoldenRunArtifacts pins the report, Chrome trace, Prometheus text
// and journal bytes of the config matrix by SHA-256. Regenerate with
// `go test ./internal/core -run TestGoldenRunArtifacts -update` only
// for a change that is meant to move an artifact.
func TestGoldenRunArtifacts(t *testing.T) {
	ds := tinyDS(t)
	dir := t.TempDir()
	var got strings.Builder
	for _, c := range goldenConfigs(t, ds) {
		path := filepath.Join(dir, c.name+".journal")
		rep, pl, err := journalRun(t, ds, c.cfg, path)
		if rep == nil || rep.Snapshot == nil {
			t.Fatalf("%s: no finished report: %v", c.name, err)
		}
		a := capture(t, rep, pl)
		jb, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for _, art := range []struct {
			name string
			body []byte
		}{
			{"report", []byte(reportText(rep, err))},
			{"trace", []byte(a.trace)},
			{"metrics", []byte(a.metrics)},
			{"journal", jb},
		} {
			fmt.Fprintf(&got, "%s %s %x %d\n", c.name, art.name, sha256.Sum256(art.body), len(art.body))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenRunsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenRunsFile)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/core -run TestGoldenRunArtifacts -update`): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("artifact moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
