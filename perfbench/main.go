// Command perfbench is rnascale's end-to-end and per-layer benchmark.
//
// It runs one named workload through the program's public entry
// points, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 14.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones from a
// separate traced run over the same inputs, whose spans are also
// written to .bench_build/perfbench/traces. See NOTES.md for the
// workloads and what each metric should move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload bglumae-mamp --seed 0 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec names a metric and its unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// every workload with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"runs_per_s", "1/s"},
	{"run_latency_p50_s", "s"},
	{"run_latency_p90_s", "s"},
	{"read_latency_p50_s", "s"},
	{"read_latency_p90_s", "s"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = func() []metricSpec {
	var m []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricSpec{n, unit})
		}
	}
	for _, a := range []string{"contrail", "ray", "abyss"} {
		add("s", "assembler."+a+".run_s")
		add("MB", "assembler."+a+".alloc_mb")
		add("count", "assembler."+a+".contigs")
	}
	for _, a := range []string{"ray", "abyss"} {
		add("count", "mpi."+a+".messages")
		add("MB", "mpi."+a+".sent_mb")
	}
	for _, p := range []string{"dbg.cliptips", "dbg.popbubbles", "dbg.unitigs",
		"mpi.collective", "vclock.slotpool_acquire"} {
		add("s", p+"_s")
		add("count", p+".calls")
	}
	add("s", "simdata.generate_s", "preprocess.run_s")
	add("count", "preprocess.reads_kept")
	add("s", "seq.serialize_s")
	add("MB", "seq.serialize_mb")
	add("s", "merge.run_s")
	add("count", "merge.contigs_in", "merge.contigs_out")
	add("s", "quant.quantify_s", "detonate.evaluate_s", "core.predict_s", "journal.append_s")
	add("count", "journal.append.calls", "journal.records_per_run")
	add("B", "journal.bytes_per_run")
	add("s", "journal.verify_s", "gateway.submit_s", "gateway.queue_wait_s",
		"gateway.proof_s", "gateway.trace_s", "gateway.transcripts_s")
	add("ratio", "trace.coverage")
	add("s", "trace.overhead_s")
	return m
}()

// workdir, relative to the repository root the benchmark runs from,
// holds the gateway journals and the span traces.
const workdir = ".bench_build/perfbench"

// opts are one invocation's settings.
type opts struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	log      io.Writer
}

func (o opts) logf(format string, args ...any) {
	fmt.Fprintf(o.log, "perfbench: "+format+"\n", args...)
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int
	values            map[string]float64
	spans             []span // traced runs only
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// fail counts one failed operation and says why.
func (r *result) fail(o opts, err error) {
	r.failed++
	o.logf("FAILED: %v", err)
}

// report renders the human-readable table and the final JSON line.
// Metrics the workload did not exercise read 0. A metric outside specs,
// or an end-to-end one a passing run did not measure, is a benchmark
// bug and prints no result.
func (r *result) report(w io.Writer, o opts, specs []metricSpec) error {
	correct := r.failed == 0 && r.attempted > 0
	known := map[string]bool{}
	for _, s := range specs {
		known[s.name] = true
	}
	var unknown []string
	for name := range r.values {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics outside the spec: %s", strings.Join(unknown, ", "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.window.Seconds(), o.trace)
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok && !o.trace && correct {
			return fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, correct = 0, false
		}
		metrics[s.name] = value{v, s.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.name, v, s.unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %s (%d of %d)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	host, err := json.Marshal(hostFingerprint())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", host)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// workloadNames lists every workload, in the order NOTES.md gives them.
var workloadNames = []string{"bglumae-mamp", "pcrispa-mpi", "gateway-journaled"}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "workload seed: 0 is the canonical dataset, any other draws a fresh read set (pipelines) or request sequence (gateway)")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 = the traced run with per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
	}
	o := opts{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, log: stderr}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	want, ok := pins[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}

	var res *result
	spec, isPipeline := pipelines[o.workload]
	switch {
	case isPipeline && o.trace:
		res, err = runPipelineTraced(o, spec, want)
	case isPipeline:
		res, err = runPipelineWorkload(o, spec, want)
	case o.trace:
		res, err = runGatewayTraced(o, want)
	default:
		res, err = runGatewayWorkload(o, want)
	}
	if err != nil {
		return err
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
		hdr := map[string]any{"workload": o.workload, "seed": o.seed, "host": hostFingerprint()}
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeTrace(path, hdr, res.spans); err != nil {
			return err
		}
		printSelfTimes(stdout, res.spans)
	}
	return res.report(stdout, o, specs)
}

// printSelfTimes lists each span name's total and self time, largest
// self time first.
func printSelfTimes(w io.Writer, spans []span) {
	total, self := layerTotals(spans)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return self[names[i]] > self[names[j]] || (self[names[i]] == self[names[j]] && names[i] < names[j])
	})
	fmt.Fprintf(w, "  %-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.4f %12.4f\n", n, total[n].Seconds(), self[n].Seconds())
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
