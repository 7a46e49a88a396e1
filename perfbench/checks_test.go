package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnascale/internal/gateway"
	"rnascale/internal/journal"
	"rnascale/internal/vclock"
)

const goodFASTA = ">tx1\nACGT\n>tx2\nGGCC\n"

func goodPin() pin {
	return pin{
		TTC: vclock.Duration(9191.5).String(), TTCSeconds: 9191.5, CostUSD: 61.25,
		Transcripts: 2, TranscriptsSHA256: digest([]byte(goodFASTA)), F1: 0.59, MinF1: 0.4,
	}
}

// gatewayPin is goodPin without quality scores: gateway runs are not
// evaluated against the ground truth.
func gatewayPin() pin {
	p := goodPin()
	p.F1, p.MinF1 = 0, 0
	return p
}

func goodOutcome() outcome {
	return outcome{TTCSeconds: 9191.5, CostUSD: 61.25, Transcripts: 2, F1: 0.59, FASTA: []byte(goodFASTA)}
}

func TestCheckPipelineAcceptsPinnedOutput(t *testing.T) {
	if err := checkPipeline(goodPin(), 0, goodOutcome()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPipelineRejectsWrongOutput(t *testing.T) {
	for name, mutate := range map[string]func(*outcome){
		"wrong TTC":            func(o *outcome) { o.TTCSeconds += 60 },
		"wrong cost":           func(o *outcome) { o.CostUSD += 0.01 },
		"wrong F1":             func(o *outcome) { o.F1 = 0.6 },
		"wrong transcript set": func(o *outcome) { o.FASTA = []byte(">tx1\nACGT\n>tx2\nGGCA\n") },
		"wrong count":          func(o *outcome) { o.Transcripts = 3; o.FASTA = append(o.FASTA, ">tx3\nA\n"...) },
		"count disagrees":      func(o *outcome) { o.Transcripts = 3 },
		"no transcripts":       func(o *outcome) { o.Transcripts, o.FASTA = 0, nil },
		"F1 below the floor":   func(o *outcome) { o.F1 = 0.1 },
		"not evaluated":        func(o *outcome) { o.F1 = math.NaN() },
	} {
		o := goodOutcome()
		mutate(&o)
		if err := checkPipeline(goodPin(), 0, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckPipelineOtherSeedsNeedOnlySanity(t *testing.T) {
	o := goodOutcome()
	o.TTCSeconds, o.F1 = 100, 0.5
	o.FASTA = []byte(">a\nAC\n>b\nGT\n")
	if err := checkPipeline(goodPin(), 7, o); err != nil {
		t.Fatalf("another seed's different output rejected: %v", err)
	}
	o.F1 = 0.3
	if err := checkPipeline(goodPin(), 7, o); err == nil {
		t.Error("F1 below the floor accepted on another seed")
	}
}

func TestSameBytes(t *testing.T) {
	if err := sameBytes("x", []byte("ACGT"), []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	err := sameBytes("x", []byte("ACGT"), []byte("ACCT"))
	if err == nil || !strings.Contains(err.Error(), "byte 2") {
		t.Errorf("got %v, want a difference at byte 2", err)
	}
	if sameBytes("x", []byte("ACGT"), []byte("ACG")) == nil {
		t.Error("a truncated copy compared equal")
	}
}

// proofOf builds a real journal and returns the gateway's proof body
// for its last record.
func proofOf(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{journal.KindHeader, journal.KindUnit, journal.KindComplete} {
		if _, err := w.Append(journal.Record{Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	vr, err := journal.Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := journal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lg.Proof(len(lg.Records) - 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(proofBody{Verify: vr, Proof: p})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goodCycle(t *testing.T) cycleResult {
	return cycleResult{
		SubmitStatus: http.StatusAccepted,
		View: gateway.RunView{ID: "run-00001", Status: gateway.StatusDone, Outcome: "complete",
			TTCSeconds: 9191.5, CostUSD: 61.25, Transcripts: 2},
		Proof:       proofOf(t),
		ProofStatus: http.StatusOK,
		FASTA:       []byte(goodFASTA),
	}
}

func TestCheckCycleAcceptsGoodCycle(t *testing.T) {
	if err := checkCycle(gatewayPin(), goodCycle(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCycleRejectsBadCycles(t *testing.T) {
	var damaged proofBody
	if err := json.Unmarshal(proofOf(t), &damaged); err != nil {
		t.Fatal(err)
	}
	damaged.Verify.BadSeq, damaged.Verify.Reason = 1, "chain mismatch"
	damagedBody, _ := json.Marshal(damaged)
	var forged proofBody
	if err := json.Unmarshal(proofOf(t), &forged); err != nil {
		t.Fatal(err)
	}
	forged.Proof.Leaf = strings.Repeat("0", 64)
	forgedBody, _ := json.Marshal(forged)

	for name, mutate := range map[string]func(*cycleResult){
		"429 on submit":        func(c *cycleResult) { c.SubmitStatus = http.StatusTooManyRequests },
		"422 on submit":        func(c *cycleResult) { c.SubmitStatus = http.StatusUnprocessableEntity },
		"run failed":           func(c *cycleResult) { c.View.Status, c.View.Outcome = gateway.StatusFailed, "" },
		"deadline exceeded":    func(c *cycleResult) { c.View.Outcome = "deadline_exceeded" },
		"proof refused":        func(c *cycleResult) { c.ProofStatus = http.StatusConflict },
		"journal damaged":      func(c *cycleResult) { c.Proof = damagedBody },
		"proof does not fold":  func(c *cycleResult) { c.Proof = forgedBody },
		"wrong TTC":            func(c *cycleResult) { c.View.TTCSeconds = 1 },
		"wrong transcript set": func(c *cycleResult) { c.FASTA = []byte(">tx1\nACGT\n>tx9\nGGCC\n") },
		"transport error":      func(c *cycleResult) { c.Err = os.ErrDeadlineExceeded },
	} {
		c := goodCycle(t)
		mutate(&c)
		if err := checkCycle(gatewayPin(), c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		p, ok := pins[w]
		if !ok {
			t.Errorf("no pin for %s", w)
			continue
		}
		if got := vclock.Duration(p.TTCSeconds).String(); got != p.TTC {
			t.Errorf("%s: ttc %q does not render ttcSeconds (%q)", w, p.TTC, got)
		}
		if p.Transcripts <= 0 || len(p.TranscriptsSHA256) != 64 {
			t.Errorf("%s: incomplete pin %+v", w, p)
		}
	}
	if len(pins) != len(workloadNames) {
		t.Errorf("%d pins for %d workloads", len(pins), len(workloadNames))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, tc := range []struct {
		what string
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", tc.what, len(tc.json), len(tc.code))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.code[i].name || m.Unit != tc.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", tc.what, i, m.Name, m.Unit, tc.code[i].name, tc.code[i].unit)
			}
		}
	}
}
