package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"rnascale/internal/gateway"
	"rnascale/internal/journal"
	"rnascale/internal/vclock"
)

// expectedJSON pins each workload's output on its canonical seed.
//
//go:embed expected.json
var expectedJSON []byte

// pin is a workload's expected output: exact on the canonical seed
// (0) for the pipeline workloads, and on every seed for the gateway,
// whose dataset the API names by profile.
type pin struct {
	// TTC is the virtual time to completion as the CLI prints it;
	// TTCSeconds is the exact value.
	TTC        string  `json:"ttc"`
	TTCSeconds float64 `json:"ttcSeconds"`
	CostUSD    float64 `json:"costUSD"`
	// Transcripts counts the final transcript set and
	// TranscriptsSHA256 digests it as 80-column FASTA.
	Transcripts       int    `json:"transcripts"`
	TranscriptsSHA256 string `json:"transcriptsSHA256"`
	// F1 is the DETONATE nucleotide F1; 0 when the workload does not
	// evaluate against the ground truth.
	F1 float64 `json:"f1,omitempty"`
	// MinF1 is the floor for F1 on seeds other than the canonical one,
	// where the dataset (and so the exact output) differs.
	MinF1 float64 `json:"minF1,omitempty"`
}

// loadPins parses the embedded expectations.
func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return pins, nil
}

// outcome is what one finished run produced.
type outcome struct {
	TTCSeconds  float64
	CostUSD     float64
	Transcripts int
	F1          float64 // NaN when the run was not evaluated
	FASTA       []byte  // the final transcripts, 80-column FASTA
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// String renders the outcome with exact values, in the form
// expected.json pins them.
func (o outcome) String() string {
	return fmt.Sprintf("ttcSeconds %v costUSD %v transcripts %d transcriptsSHA256 %s f1 %v",
		o.TTCSeconds, o.CostUSD, o.Transcripts, digest(o.FASTA), o.F1)
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// checkPinned compares a run's output with the pin exactly.
func checkPinned(want pin, got outcome) error {
	if err := pinMismatch(want, got); err != nil {
		return fmt.Errorf("%w; got %s", err, got)
	}
	return nil
}

func pinMismatch(want pin, got outcome) error {
	switch {
	case !near(got.TTCSeconds, want.TTCSeconds) || vclock.Duration(got.TTCSeconds).String() != want.TTC:
		return fmt.Errorf("TTC %s (%.3fs), want %s (%.3fs)", vclock.Duration(got.TTCSeconds), got.TTCSeconds, want.TTC, want.TTCSeconds)
	case !near(got.CostUSD, want.CostUSD):
		return fmt.Errorf("cost $%.4f, want $%.4f", got.CostUSD, want.CostUSD)
	case got.Transcripts != want.Transcripts:
		return fmt.Errorf("%d transcripts, want %d", got.Transcripts, want.Transcripts)
	case digest(got.FASTA) != want.TranscriptsSHA256:
		return fmt.Errorf("transcript set digest %.12s…, want %.12s…", digest(got.FASTA), want.TranscriptsSHA256)
	case want.F1 > 0 && !near(got.F1, want.F1):
		return fmt.Errorf("F1 %.4f, want %.4f", got.F1, want.F1)
	}
	return nil
}

// checkSane holds on every seed: a complete, non-empty, billed run
// whose quality clears the pin's floor.
func checkSane(want pin, got outcome) error {
	switch {
	case got.TTCSeconds <= 0 || got.CostUSD <= 0:
		return fmt.Errorf("TTC %.3fs, cost $%.4f: want both positive", got.TTCSeconds, got.CostUSD)
	case got.Transcripts <= 0 || len(got.FASTA) == 0:
		return fmt.Errorf("no transcripts")
	case bytes.Count(got.FASTA, []byte{'>'}) != got.Transcripts:
		return fmt.Errorf("FASTA holds %d records, report says %d", bytes.Count(got.FASTA, []byte{'>'}), got.Transcripts)
	case want.MinF1 > 0 && !(got.F1 >= want.MinF1):
		return fmt.Errorf("F1 %.4f below the floor %.2f", got.F1, want.MinF1)
	}
	return nil
}

// checkPipeline applies the exact pin on the canonical seed (0) and
// the sanity checks on any seed.
func checkPipeline(want pin, seed int64, got outcome) error {
	if err := checkSane(want, got); err != nil {
		return err
	}
	if seed == 0 {
		return checkPinned(want, got)
	}
	return nil
}

// sameBytes reports where two renderings of a run's transcripts first
// differ; two runs of the same inputs, or a run and its traced replay,
// must agree byte for byte.
func sameBytes(what string, a, b []byte) error {
	if bytes.Equal(a, b) {
		return nil
	}
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return fmt.Errorf("%s differ at byte %d (%d vs %d bytes)", what, i, len(a), len(b))
}

// cycleResult is one gateway client cycle as the client saw it.
type cycleResult struct {
	SubmitStatus int
	View         gateway.RunView // the terminal view
	Proof        []byte          // body of GET …/proof
	ProofStatus  int
	FASTA        []byte // body of GET …/transcripts
	Err          error  // transport failure or timeout
}

// proofBody is the shape of GET /api/runs/{id}/proof.
type proofBody struct {
	Verify journal.VerifyResult `json:"verify"`
	Proof  journal.Proof        `json:"proof"`
}

// checkCycle judges one gateway cycle: the submit must be accepted
// (202), the run must end done and complete, its proof must verify
// clean, and its output must match the pin.
func checkCycle(want pin, c cycleResult) error {
	if c.Err != nil {
		return c.Err
	}
	if c.SubmitStatus != http.StatusAccepted {
		return fmt.Errorf("submit answered %d, want 202", c.SubmitStatus)
	}
	if c.View.Status != gateway.StatusDone || c.View.Outcome != "complete" {
		return fmt.Errorf("run %s ended %s/%s (%s), want done/complete", c.View.ID, c.View.Status, c.View.Outcome, c.View.Error)
	}
	if c.ProofStatus != http.StatusOK {
		return fmt.Errorf("proof answered %d, want 200", c.ProofStatus)
	}
	var pb proofBody
	if err := json.Unmarshal(c.Proof, &pb); err != nil {
		return fmt.Errorf("proof: %w", err)
	}
	if !pb.Verify.Clean() {
		return fmt.Errorf("proof: journal %s", pb.Verify)
	}
	if err := journal.VerifyInclusion(pb.Proof); err != nil || pb.Proof.Root != pb.Verify.Root {
		return fmt.Errorf("proof: inclusion does not verify against root %.12s…: %v", pb.Verify.Root, err)
	}
	return checkPinned(want, c.outcome())
}

// outcome is the cycle's output as the API reported it.
func (c cycleResult) outcome() outcome {
	return outcome{
		TTCSeconds:  c.View.TTCSeconds,
		CostUSD:     c.View.CostUSD,
		Transcripts: c.View.Transcripts,
		F1:          math.NaN(),
		FASTA:       c.FASTA,
	}
}
