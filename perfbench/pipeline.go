package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"rnascale/internal/assembler"
	_ "rnascale/internal/assembler/all" // registers the assemblers core.Run uses
	"rnascale/internal/cloud"
	"rnascale/internal/core"
	"rnascale/internal/detonate"
	"rnascale/internal/merge"
	"rnascale/internal/obs"
	"rnascale/internal/obs/perf"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// pipelineSpec is a workload that runs core.Run on one generated
// dataset.
type pipelineSpec struct {
	profile func() simdata.Profile
	config  func() core.Config
}

var pipelines = map[string]pipelineSpec{
	// The paper's sample run: S2, dynamic sizing, MAMP with
	// ray+abyss+contrail. Contrail (mapreduce) dominates.
	"bglumae-mamp": {simdata.BGlumae, func() core.Config {
		cfg := core.DefaultConfig()
		cfg.EvaluateAgainstTruth = true
		return cfg
	}},
	// The MPI assemblers alone on the larger transcriptome and
	// k=51..63: dbg/seq/mpi dominate and mapreduce is absent.
	"pcrispa-mpi": {simdata.PCrispa, func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Assemblers = []string{"ray", "abyss"}
		cfg.EvaluateAgainstTruth = true
		return cfg
	}},
}

const (
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 5
	// readWindow and readMin bound how long, and how many times at
	// least, each finished run's exports are timed.
	readWindow = time.Second
	readMin    = 50
)

// generate builds the workload's dataset setupReps times, returning
// the last dataset and each build's wall time. The canonical seed (0)
// is the profile's own dataset. Any other seed keeps the profile's
// genome, transcriptome and expression and draws a fresh read set from
// them with that seed (simdata.Dataset.Resample): a new sequencing run
// of the same sample, so the work per run stays the same size from seed
// to seed. Regenerating the transcriptome as well moves the time of a
// bglumae-mamp run by ±15% between seeds.
func generate(prof simdata.Profile, seed int64) (*simdata.Dataset, []float64, error) {
	var ds *simdata.Dataset
	var secs []float64
	for i := 0; i < setupReps; i++ {
		ds = nil
		runtime.GC()
		t0 := time.Now()
		d, err := simdata.Generate(prof)
		if err == nil && seed != 0 {
			d.Reads, err = d.Resample(d.Expression, seed)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("generate %s: %w", prof.Name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		ds = d
	}
	return ds, secs, nil
}

// pipelineRun is one timed core.Run.
type pipelineRun struct {
	wall, cpu time.Duration
	rep       *core.Report
	obs       *obs.Obs
	out       outcome
}

// runPipeline times one core.Run, starting from a collected heap so a
// previous run's garbage is not charged to this one.
func runPipeline(ds *simdata.Dataset, cfg core.Config) (pipelineRun, error) {
	cfg.Obs = obs.New()
	runtime.GC()
	u0 := rusage()
	t0 := time.Now()
	rep, err := core.Run(ds, cfg)
	wall := time.Since(t0)
	cpu := rusage().CPU - u0.CPU
	if err != nil {
		return pipelineRun{}, fmt.Errorf("core.Run: %w", err)
	}
	if rep.Outcome != core.OutcomeComplete {
		return pipelineRun{}, fmt.Errorf("core.Run ended %q", rep.Outcome)
	}
	out, err := outcomeOf(rep.TTC.Seconds(), rep.CostUSD, rep.Transcripts, rep.Metrics)
	if err != nil {
		return pipelineRun{}, err
	}
	return pipelineRun{wall: wall, cpu: cpu, rep: rep, obs: cfg.Obs, out: out}, nil
}

func outcomeOf(ttc, cost float64, txs []seq.FastaRecord, m *detonate.Metrics) (outcome, error) {
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, txs, 80); err != nil {
		return outcome{}, err
	}
	f1 := math.NaN()
	if m != nil {
		f1 = m.F1
	}
	return outcome{TTCSeconds: ttc, CostUSD: cost, Transcripts: len(txs), F1: f1, FASTA: buf.Bytes()}, nil
}

// readLatencies times the exports a user reads from a finished run:
// the transcripts FASTA, the Chrome trace (rnapipe -trace-out) and the
// Prometheus metrics (rnapipe -metrics), in turn, for readWindow and
// at least readMin times each. Sampling over a window rather than in
// one burst keeps a momentary stall on the host from setting the
// percentiles.
func readLatencies(r pipelineRun) ([]float64, error) {
	exports := []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return seq.WriteFasta(b, r.rep.Transcripts, 80) },
		func(b *bytes.Buffer) error { return r.obs.Tracer.WriteChromeTrace(b) },
		func(b *bytes.Buffer) error { return r.obs.Metrics.WritePrometheus(b) },
	}
	var out []float64
	var buf bytes.Buffer
	runtime.GC()
	start := time.Now()
	for i := 0; i < readMin || time.Since(start) < readWindow; i++ {
		for _, export := range exports {
			buf.Reset()
			t0 := time.Now()
			if err := export(&buf); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0).Seconds())
		}
	}
	return out, nil
}

// runPipelineWorkload is the plain (untraced) measurement: core.Run
// repeatedly on one dataset for about the window, at least once.
func runPipelineWorkload(o opts, spec pipelineSpec, want pin) (*result, error) {
	ds, setup, err := generate(spec.profile(), o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var walls, cpus, reads []float64
	var first []byte
	// Start another run while that lands nearer the end of the window
	// than stopping does, so the run count does not flip between two
	// values when a run takes about as long as the window has left.
	start := time.Now()
	for res.attempted == 0 || time.Since(start)+time.Since(start)/time.Duration(2*res.attempted) < o.window {
		res.attempted++
		r, err := runPipeline(ds, spec.config())
		if err == nil {
			err = checkPipeline(want, o.seed, r.out)
		}
		if err == nil && first != nil {
			err = sameBytes("transcripts of two runs on the same dataset", first, r.out.FASTA)
		}
		if err != nil {
			res.fail(o, err)
			continue
		}
		if first == nil {
			first = r.out.FASTA
		}
		rl, err := readLatencies(r)
		if err != nil {
			res.fail(o, err)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		reads = append(reads, rl...)
		o.logf("run %d: wall %.2fs cpu %.2fs TTC %s: %s", len(walls), r.wall.Seconds(), r.cpu.Seconds(), r.rep.TTC, r.out)
	}
	elapsed := time.Since(start).Seconds()
	if len(walls) == 0 {
		return res, nil
	}
	res.set("setup_s", median(setup))
	res.set("wall_s", median(walls))
	res.set("cpu_s", median(cpus))
	res.set("peak_rss_mb", float64(rusage().MaxRSSB)/1e6)
	res.set("runs_per_s", float64(len(walls))/elapsed)
	res.set("run_latency_p50_s", median(walls))
	res.set("run_latency_p90_s", percentile(walls, 90))
	res.set("read_latency_p50_s", median(reads))
	res.set("read_latency_p90_s", percentile(reads, 90))
	return res, nil
}

// runPipelineTraced is the traced measurement: one plain core.Run for
// reference, then a replay of its layer calls with a span around each
// and the perf probes on. The replay's transcripts must match the plain
// run's byte for byte, or the trace does not explain the run.
func runPipelineTraced(o opts, spec pipelineSpec, want pin) (*result, error) {
	ds, setup, err := generate(spec.profile(), o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.attempted = 2
	plain, err := runPipeline(ds, spec.config())
	if err == nil {
		err = checkPipeline(want, o.seed, plain.out)
	}
	if err != nil {
		res.failed++ // the replay depends on the plain run
		res.fail(o, err)
		return res, nil
	}

	rec := newRecorder()
	perf.Reset()
	perf.Enable()
	rp, err := replay(ds, spec.config(), plain.rep, rec)
	perf.Disable()
	if err == nil {
		err = sameBytes("replayed and core.Run transcripts", plain.out.FASTA, rp.out.FASTA)
	}
	if err == nil && !near(rp.out.F1, plain.out.F1) {
		err = fmt.Errorf("replayed F1 %.6f, core.Run F1 %.6f", rp.out.F1, plain.out.F1)
	}
	if err != nil {
		res.fail(o, err)
		return res, nil
	}
	spans := rec.snapshot()
	for name, v := range rp.layer {
		res.set(name, v)
	}
	res.set("simdata.generate_s", median(setup))
	addProbes(res, 1)
	root := spans[rp.root]
	var covered time.Duration
	for _, s := range spans {
		if s.Parent == rp.root {
			covered += s.dur()
		}
	}
	res.set("trace.coverage", covered.Seconds()/plain.wall.Seconds())
	res.set("trace.overhead_s", root.dur().Seconds()-plain.wall.Seconds())
	o.logf("plain wall %.2fs, traced replay %.2fs", plain.wall.Seconds(), root.dur().Seconds())
	res.spans = spans
	return res, nil
}

// replayed is the traced replay's output.
type replayed struct {
	out   outcome
	root  int
	layer map[string]float64
}

// replay re-issues core.Run's layer calls in the pipeline's order —
// pre-processing, the FASTQ hand-off, every assembler×k job with its
// SFA/FASTA writes, per-assembler and MAMP merges, the transcripts
// write, quantification and evaluation — with the arguments core.Run
// derives. The k plan and the assembly instance type come from the
// plain run's report, so the replay makes the same calls on the same
// inputs without re-running the simulated cloud.
func replay(ds *simdata.Dataset, cfg core.Config, plainRep *core.Report, rec *recorder) (replayed, error) {
	layer := map[string]float64{}
	add := func(name string, v float64) { layer[name] += v }
	root := rec.begin("pipeline", -1, map[string]string{"profile": ds.Profile.Name})
	// timed records a span named after the layer call and adds its
	// duration to metric.
	timed := func(name, metric string, attrs map[string]string, fn func() error) error {
		id := rec.begin(name, root, attrs)
		err := fn()
		add(metric, rec.end(id).Seconds())
		return err
	}
	serialize := func(write func(*bytes.Buffer) error) error {
		var buf bytes.Buffer
		err := timed("seq.serialize", "seq.serialize_s", nil, func() error { return write(&buf) })
		add("seq.serialize_mb", float64(buf.Len())/1e6)
		return err
	}

	// PA: pre-processing and the cleaned-reads hand-off.
	var cleaned seq.ReadSet
	var st preprocess.Stats
	_ = timed("preprocess.run", "preprocess.run_s", nil, func() error {
		cleaned, st = preprocess.Run(ds.Reads, cfg.Preprocess)
		return nil
	})
	layer["preprocess.reads_kept"] = float64(st.OutputReads)
	if err := serialize(func(b *bytes.Buffer) error { return seq.WriteFastq(b, cleaned.Reads) }); err != nil {
		return replayed{}, err
	}

	// PB: every assembler × k job, with the allocation core.Run gave it.
	pbType := ""
	if plainRep.Snapshot != nil {
		for _, s := range plainRep.Snapshot.Stages {
			if s.Name == "PB" {
				pbType = s.InstanceType
			}
		}
	}
	cores := 0
	for _, it := range cloud.DefaultCatalog() {
		if it.Name == pbType {
			cores = it.Cores
		}
	}
	if cores == 0 {
		return replayed{}, fmt.Errorf("replay: PB instance type %q not in the catalogue", pbType)
	}
	asmFS := ds.Profile.FullScale
	asmFS.SeqDataBytes = asmFS.PostPreprocessBytes
	outputs := map[string][][]seq.FastaRecord{}
	for _, name := range cfg.Assemblers {
		a, err := assembler.Get(name)
		if err != nil {
			return replayed{}, err
		}
		nodes := cfg.NodesPerMPIJob
		if name == "contrail" {
			nodes = cfg.ContrailNodes
		} else if !a.Info().MultiNode() {
			nodes = 1
		}
		for _, k := range plainRep.KmersUsed {
			reads := cleaned.Reads
			if name == "contrail" {
				reads = dropNReads(reads)
				if err := serialize(func(b *bytes.Buffer) error { return seq.WriteSFA(b, reads) }); err != nil {
					return replayed{}, err
				}
			}
			var res assembler.Result
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			err := timed("assembler."+name, "assembler."+name+".run_s", map[string]string{"k": fmt.Sprint(k)}, func() error {
				var err error
				res, err = a.Assemble(assembler.Request{
					Reads:        reads,
					Params:       assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
					Nodes:        nodes,
					CoresPerNode: cores,
					FullScale:    asmFS,
				})
				return err
			})
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return replayed{}, fmt.Errorf("replay %s k=%d: %w", name, k, err)
			}
			add("assembler."+name+".alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
			add("assembler."+name+".contigs", float64(len(res.Contigs)))
			if name != "contrail" {
				add("mpi."+name+".messages", float64(res.Messages))
				add("mpi."+name+".sent_mb", float64(res.BytesSent)/1e6)
			}
			outputs[name] = append(outputs[name], res.Contigs)
			if err := serialize(func(b *bytes.Buffer) error { return seq.WriteFasta(b, res.Contigs, 80) }); err != nil {
				return replayed{}, err
			}
		}
	}
	// PC: per-assembler multi-k merges, the MAMP merge, the transcripts
	// write, quantification.
	var all [][]seq.FastaRecord
	for _, name := range cfg.Assemblers {
		var perTool []seq.FastaRecord
		_ = timed("merge.run", "merge.run_s", map[string]string{"assembler": name}, func() error {
			perTool, _ = merge.Merge(outputs[name], merge.DefaultOptions())
			return nil
		})
		all = append(all, perTool)
	}
	var final []seq.FastaRecord
	var mst merge.Stats
	_ = timed("merge.run", "merge.run_s", nil, func() error {
		final, mst = merge.Merge(all, merge.DefaultOptions())
		return nil
	})
	layer["merge.contigs_in"] = float64(mst.Input)
	layer["merge.contigs_out"] = float64(mst.Output)
	if err := serialize(func(b *bytes.Buffer) error { return seq.WriteFasta(b, final, 80) }); err != nil {
		return replayed{}, err
	}
	if err := timed("quant.quantify", "quant.quantify_s", nil, func() error {
		_, err := quant.Quantify(final, cleaned.Reads, quant.DefaultOptions())
		return err
	}); err != nil {
		return replayed{}, err
	}

	// Evaluation against the ground truth, as core.Run scores it.
	var m *detonate.Metrics
	if cfg.EvaluateAgainstTruth {
		opts := detonate.DefaultOptions()
		opts.ReadBases = cleaned.TotalBases()
		truth := ds.Annotations
		if len(truth) == 0 {
			truth = ds.Transcripts
		}
		if err := timed("detonate.evaluate", "detonate.evaluate_s", nil, func() error {
			v, err := detonate.Evaluate(final, truth, ds.Expression, opts)
			m = &v
			return err
		}); err != nil {
			return replayed{}, err
		}
	}
	rec.end(root)
	out, err := outcomeOf(plainRep.TTC.Seconds(), plainRep.CostUSD, final, m)
	if err != nil {
		return replayed{}, err
	}
	return replayed{out: out, root: root, layer: layer}, nil
}

// dropNReads is the N-free read subset core.Run feeds Contrail.
func dropNReads(reads []seq.Read) []seq.Read {
	out := make([]seq.Read, 0, len(reads))
	for _, r := range reads {
		if seq.CountN(r.Seq) == 0 {
			out = append(out, r)
		}
	}
	return out
}

// probeRegions are the perf probe regions the benchmark reports. The
// parsers and mpi.run are left out, and so are dbg.build and
// seq.count_distinct, which no workload reaches (only velvet builds
// through dbg.Build; only the kernel benchmarks count distinct k-mers).
var probeRegions = map[string]bool{
	"dbg.cliptips": true, "dbg.popbubbles": true, "dbg.unitigs": true,
	"mpi.collective": true, "vclock.slotpool_acquire": true, "journal.append": true,
}

// addProbes reports each probe region's seconds (<region>_s) and calls
// (<region>.calls), averaged over runs traced runs.
func addProbes(res *result, runs int) {
	for _, s := range perf.Snapshot() {
		if probeRegions[s.Name] {
			res.set(s.Name+"_s", float64(s.TotalNs)/1e9/float64(runs))
			res.set(s.Name+".calls", float64(s.Count)/float64(runs))
		}
	}
}
