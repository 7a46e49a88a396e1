package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/cluster"
	"rnascale/internal/diffexpr"
	"rnascale/internal/journal"
	"rnascale/internal/merge"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
	"rnascale/internal/sge"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// stage describes one pipeline stage for Run's stage loop: what
// differs between PA, PB and PC. The loop owns everything else.
type stage struct {
	name  string
	retry pilot.RetryPolicy
	// memGB is the per-node memory the flavour of a freshly booted
	// vehicle is chosen for (see instanceType).
	memGB float64
	// size resolves the node count just before launch, once the
	// previous stage's outputs are known, and may annotate the span.
	size func(sc *stageScope, backend cloud.Backend) int
	// migrate is the byte volume moved from the previous stage's store
	// (unused by the first stage).
	migrate func() int64
	// units builds the stage's work on its launched vehicle.
	units func(sx *stageExec) []unitSpec
	// failed wraps a unit that did not finish into the stage's error.
	failed func(sx *stageExec, u *pilot.Unit) error
	// fold, when set, folds each finished unit into the report as the
	// loop checks it.
	fold func(u *pilot.Unit)
	// collect folds the stage's outputs into the report once every
	// unit is done, and returns the stage note.
	collect func(sx *stageExec, units []*pilot.Unit) (string, error)
}

// unitSpec is one unit of stage work and the codec that journals its
// outputs.
type unitSpec struct {
	name  string
	slots int
	rule  sge.AllocationRule // zero value: SingleNode
	work  pilot.WorkFunc
	codec unitCodec
}

// runData is what the stages of one run hand each other.
type runData struct {
	ds  *simdata.Dataset
	rep *Report
	// cleaned is PA's output, the reads every later stage consumes.
	cleaned seq.ReadSet
	// outputs holds PB's contigs per assembler and k.
	outputs map[asmKey][]seq.FastaRecord
}

type asmKey struct {
	name string
	k    int
}

// preprocessStage is PA: read cleaning, data-parallel over
// fragment-preserving shards (one shard is the paper's stock
// single-VM PA).
func (pl *Pipeline) preprocessStage(d *runData) stage {
	cfg, fs := pl.cfg, d.ds.Profile.FullScale
	model := preprocess.DefaultCostModel()
	shards := preprocessShards(cfg)
	fsShard := fs
	fsShard.SeqDataBytes = fs.SeqDataBytes / int64(shards)
	clean := make([]seq.ReadSet, shards)
	stats := make([]preprocess.Stats, shards)
	return stage{
		name: "PA", retry: cfg.Retry.PA, memGB: model.MemoryGB(fs),
		size: func(*stageScope, cloud.Backend) int {
			if cfg.Pattern == Conventional {
				// One pilot hosts everything: size it for the whole
				// workflow up front (the pattern's defining inflexibility).
				return max(shards, assemblyNodes(cfg, kmerPlan(cfg, d.ds.Profile, 0)))
			}
			return shards
		},
		units: func(sx *stageExec) []unitSpec {
			reads := shardReadSet(d.ds.Reads, shards)
			var us []unitSpec
			for s := range shards {
				us = append(us, unitSpec{
					name:  fmt.Sprintf("preprocess-%d", s),
					slots: stageSlots(sx.cores()),
					work: func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
						clean[s], stats[s] = preprocess.Run(reads[s], cfg.Preprocess)
						return pilot.WorkResult{
							Duration:     model.Duration(fsShard, env.Slots),
							PeakMemoryGB: model.MemoryGB(fsShard),
						}, nil
					},
					codec: unitCodec{
						encode: func(pilot.WorkResult) (json.RawMessage, error) {
							return json.Marshal(paPayload{
								Shard: s, Reads: clean[s].Reads,
								Paired: clean[s].Paired, Stats: stats[s],
							})
						},
						replay: func(rec journal.Record, _ *pilot.ExecEnv) (pilot.WorkResult, error) {
							var p paPayload
							if err := json.Unmarshal(rec.Payload, &p); err != nil {
								return pilot.WorkResult{}, err
							}
							clean[s] = seq.ReadSet{Reads: p.Reads, Paired: p.Paired}
							stats[s] = p.Stats
							return pilot.WorkResult{}, nil
						},
					},
				})
			}
			return us
		},
		failed: func(sx *stageExec, u *pilot.Unit) error {
			return fmt.Errorf("core: PA pre-processing failed on %s: %w", sx.instanceName(), u.Err)
		},
		collect: func(sx *stageExec, _ []*pilot.Unit) (string, error) {
			d.cleaned = seq.ReadSet{Paired: d.ds.Reads.Paired}
			var st preprocess.Stats
			for s := range shards {
				d.cleaned.Reads = append(d.cleaned.Reads, clean[s].Reads...)
				st = combineStats(st, stats[s])
			}
			if st.OutputReads == 0 {
				return "", fmt.Errorf("core: pre-processing removed every read")
			}
			pl.counter(MetricReadsProcessed, "Reads surviving pre-processing.", nil).
				Add(float64(st.OutputReads))
			pl.counter(MetricBasesProcessed, "Bases surviving pre-processing.", nil).
				Add(float64(st.OutputBases))
			var fq bytes.Buffer
			if err := seq.WriteFastq(&fq, d.cleaned.Reads); err != nil {
				return "", err
			}
			if err := sx.store().Put("data/clean.fastq", fq.Bytes()); err != nil {
				return "", err
			}
			d.rep.PreStats = st
			return st.String(), nil
		},
	}
}

// assemblyStage is PB: one job per assembler × k of the
// multiple-k-mer, multi-assembler plan. The k-mer plan is resolved
// from the read length PA measured — the information the dynamic
// workflow waits for.
func (pl *Pipeline) assemblyStage(d *runData) stage {
	cfg, fs := pl.cfg, d.ds.Profile.FullScale
	asmFS := fs
	asmFS.SeqDataBytes = fs.PostPreprocessBytes
	rep := d.rep
	return stage{
		name: "PB", retry: cfg.Retry.PB, memGB: assembler.GraphMemoryGB(asmFS, cfg.NodesPerMPIJob),
		size: func(sc *stageScope, backend cloud.Backend) int {
			rep.KmersUsed = kmerPlan(cfg, d.ds.Profile, rep.PreStats.MeanReadLen)
			rep.AssemblyNodes = assemblyNodes(cfg, rep.KmersUsed)
			if backend == cloud.Serverless {
				// Functions are single one-core allocations: there is no
				// assembly cluster to size.
				rep.AssemblyNodes = 0
			}
			sc.attr("kmers", fmt.Sprint(rep.KmersUsed))
			return rep.AssemblyNodes
		},
		migrate: func() int64 { return fs.PostPreprocessBytes },
		units: func(sx *stageExec) []unitSpec {
			cores := sx.cores()
			var us []unitSpec
			for _, name := range cfg.Assemblers {
				a, _ := assembler.Get(name)
				shape := assemblyJob(cfg, name, a, sx.faas != nil)
				for _, k := range rep.KmersUsed {
					us = append(us, unitSpec{
						name:  fmt.Sprintf("%s-k%d", name, k),
						slots: shape.nodes * cores,
						rule:  shape.rule,
						work: func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
							jobReads := d.cleaned.Reads
							if name == "contrail" {
								jobReads = dropNReads(jobReads)
								if err := putSFA(env.Store, jobReads, k); err != nil {
									return pilot.WorkResult{}, err
								}
							}
							res, err := a.Assemble(assembler.Request{
								Reads:        jobReads,
								Params:       assembler.Params{K: k, MinCoverage: cfg.MinCoverage},
								Nodes:        shape.nodes,
								CoresPerNode: cores,
								FullScale:    asmFS,
							})
							if err != nil {
								return pilot.WorkResult{}, err
							}
							d.outputs[asmKey{name, k}] = res.Contigs
							if err := putFasta(env.Store, fmt.Sprintf("asm/%s/k%d.contigs.fa", name, k), res.Contigs); err != nil {
								return pilot.WorkResult{}, err
							}
							return pilot.WorkResult{
								Duration:     res.TTC + shape.extra,
								PeakMemoryGB: res.PeakMemoryGBPerNode,
								Output:       asmOutput{name: name, k: k, res: res},
							}, nil
						},
						codec: assemblyCodec(d),
					})
				}
			}
			return us
		},
		failed: func(_ *stageExec, u *pilot.Unit) error {
			return fmt.Errorf("core: PB unit %s failed: %w", u.ID, u.Err)
		},
		fold: func(u *pilot.Unit) {
			out := u.Result.Output.(asmOutput)
			rep.Assemblies = append(rep.Assemblies, AssemblyReport{
				Assembler: out.name, K: out.k,
				Contigs: len(out.res.Contigs), N50: out.res.N50,
				TTC: out.res.TTC, MemoryGB: out.res.PeakMemoryGBPerNode,
			})
			if out.res.Messages > 0 || out.res.BytesSent > 0 {
				labels := obs.Labels{"assembler": out.name} //rnavet:allow metriccard — out.name is one of the registered assembler names (Assemblers()), a closed set
				pl.counter(MetricAssemblerMessages, "MPI/MapReduce messages sent by distributed assemblers.", labels).
					Add(float64(out.res.Messages))
				pl.counter(MetricAssemblerBytesSent, "MPI/MapReduce bytes sent by distributed assemblers.", labels).
					Add(float64(out.res.BytesSent))
			}
		},
		collect: func(sx *stageExec, units []*pilot.Unit) (string, error) {
			if sx.faas != nil {
				return fmt.Sprintf("%d assembly jobs as functions", len(units)), nil
			}
			return fmt.Sprintf("%d assembly jobs on %d nodes", len(units), rep.AssemblyNodes), nil
		},
	}
}

// assemblyCodec journals a PB unit's contigs and assembler result, and
// replays them into the run state and the vehicle's store.
func assemblyCodec(d *runData) unitCodec {
	return unitCodec{
		encode: func(res pilot.WorkResult) (json.RawMessage, error) {
			out := res.Output.(asmOutput)
			return json.Marshal(pbPayload{
				Assembler: out.name, K: out.k, Contigs: out.res.Contigs,
				TTCSeconds:          float64(out.res.TTC),
				PeakMemoryGBPerNode: out.res.PeakMemoryGBPerNode,
				Messages:            out.res.Messages,
				BytesSent:           out.res.BytesSent,
				N50:                 out.res.N50,
			})
		},
		replay: func(rec journal.Record, env *pilot.ExecEnv) (pilot.WorkResult, error) {
			var p pbPayload
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return pilot.WorkResult{}, err
			}
			if p.Assembler == "contrail" {
				// Re-derive the SFA conversion the original unit staged,
				// so the shared store's contents match.
				if err := putSFA(env.Store, dropNReads(d.cleaned.Reads), p.K); err != nil {
					return pilot.WorkResult{}, err
				}
			}
			d.outputs[asmKey{p.Assembler, p.K}] = p.Contigs
			if err := putFasta(env.Store, fmt.Sprintf("asm/%s/k%d.contigs.fa", p.Assembler, p.K), p.Contigs); err != nil {
				return pilot.WorkResult{}, err
			}
			res := assembler.Result{
				Contigs:             p.Contigs,
				TTC:                 vclock.Duration(p.TTCSeconds),
				PeakMemoryGBPerNode: p.PeakMemoryGBPerNode,
				Messages:            p.Messages,
				BytesSent:           p.BytesSent,
				N50:                 p.N50,
			}
			return pilot.WorkResult{Output: asmOutput{name: p.Assembler, k: p.K, res: res}}, nil
		},
	}
}

// postprocessStage is PC: merge each assembler's multi-k sets, then
// the MAMP union, and quantify expression (plus the optional
// second-condition differential-expression test).
func (pl *Pipeline) postprocessStage(d *runData) stage {
	cfg, fs := pl.cfg, d.ds.Profile.FullScale
	model := quant.DefaultCostModel()
	rep := d.rep
	work := func(env *pilot.ExecEnv) (pilot.WorkResult, error) {
		// Merge each assembler's multi-k sets, then the MAMP union
		// (optionally with cross-assembler consensus validation).
		var all [][]seq.FastaRecord
		for _, name := range cfg.Assemblers {
			var sets [][]seq.FastaRecord
			for _, k := range rep.KmersUsed {
				sets = append(sets, d.outputs[asmKey{name, k}])
			}
			perTool, _ := merge.Merge(sets, merge.DefaultOptions())
			rep.PerAssembler[name] = perTool
			all = append(all, perTool)
		}
		var final []seq.FastaRecord
		if cfg.ConsensusMerge && len(all) >= 2 {
			f, cs, err := merge.ConsensusMerge(all, merge.DefaultConsensusOptions())
			if err != nil {
				return pilot.WorkResult{}, err
			}
			final = f
			rep.MergeStats = cs.Stats
		} else {
			f, mstats := merge.Merge(all, merge.DefaultOptions())
			final = f
			rep.MergeStats = mstats
		}
		rep.Transcripts = final
		if err := putFasta(env.Store, "post/transcripts.fa", final); err != nil {
			return pilot.WorkResult{}, err
		}
		q, err := quant.Quantify(final, d.cleaned.Reads, quant.DefaultOptions())
		if err != nil {
			return pilot.WorkResult{}, err
		}
		rep.Quant = q
		dur := model.Duration(fs, env.Slots)
		if cfg.ConditionB != nil {
			// Optional differential-expression step: clean and
			// quantify the second condition, then test — charged as
			// a second quantification pass.
			cleanB, _ := preprocess.Run(*cfg.ConditionB, cfg.Preprocess)
			qb, err := quant.Quantify(final, cleanB.Reads, quant.DefaultOptions())
			if err != nil {
				return pilot.WorkResult{}, err
			}
			rep.QuantB = qb
			ids := make([]string, len(final))
			ca := make([]int64, len(final))
			cb := make([]int64, len(final))
			idx := map[string]int{}
			for i, tx := range final {
				ids[i] = tx.ID
				idx[tx.ID] = i
			}
			for _, a := range q.Abundances {
				ca[idx[a.ID]] = a.Count
			}
			for _, a := range qb.Abundances {
				cb[idx[a.ID]] = a.Count
			}
			rows, err := diffexpr.Test(ids, ca, cb, diffexpr.DefaultOptions())
			if err != nil {
				return pilot.WorkResult{}, fmt.Errorf("differential expression: %w", err)
			}
			rep.DiffExpr = rows
			dur += model.Duration(fs, env.Slots)
		}
		return pilot.WorkResult{
			Duration:     dur,
			PeakMemoryGB: model.MemoryGB(fs),
		}, nil
	}
	codec := unitCodec{
		encode: func(pilot.WorkResult) (json.RawMessage, error) {
			return json.Marshal(pcPayload{
				PerAssembler: rep.PerAssembler,
				Transcripts:  rep.Transcripts,
				MergeStats:   rep.MergeStats,
				Quant:        rep.Quant,
				QuantB:       rep.QuantB,
				DiffExpr:     rep.DiffExpr,
			})
		},
		replay: func(rec journal.Record, env *pilot.ExecEnv) (pilot.WorkResult, error) {
			var p pcPayload
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return pilot.WorkResult{}, err
			}
			rep.PerAssembler = p.PerAssembler
			rep.Transcripts = p.Transcripts
			rep.MergeStats = p.MergeStats
			rep.Quant = p.Quant
			rep.QuantB = p.QuantB
			rep.DiffExpr = p.DiffExpr
			return pilot.WorkResult{}, putFasta(env.Store, "post/transcripts.fa", p.Transcripts)
		},
	}
	return stage{
		name: "PC", retry: cfg.Retry.PC, memGB: model.MemoryGB(fs),
		size: func(*stageScope, cloud.Backend) int { return 1 },
		migrate: func() int64 {
			var n int64
			for _, set := range d.outputs {
				for _, c := range set {
					n += int64(len(c.Seq)) + int64(len(c.ID)) + 2
				}
			}
			return n
		},
		units: func(sx *stageExec) []unitSpec {
			return []unitSpec{{name: "postprocess", slots: stageSlots(sx.cores()), work: work, codec: codec}}
		},
		failed: func(_ *stageExec, u *pilot.Unit) error {
			return fmt.Errorf("core: PC post-processing failed: %w", u.Err)
		},
		collect: func(*stageExec, []*pilot.Unit) (string, error) {
			return rep.MergeStats.String(), nil
		},
	}
}

// putFasta writes records to a store as 80-column FASTA.
func putFasta(store *cluster.SharedStore, path string, recs []seq.FastaRecord) error {
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, recs, 80); err != nil {
		return err
	}
	return store.Put(path, buf.Bytes())
}

// putSFA stages Contrail's input for one k: Contrail cannot handle N
// bases (the paper pre-processes P. Crispa for exactly this reason), so
// it reads the N-free subset, converted to SFA.
func putSFA(store *cluster.SharedStore, reads []seq.Read, k int) error {
	var buf bytes.Buffer
	if err := seq.WriteSFA(&buf, reads); err != nil {
		return err
	}
	return store.Put(fmt.Sprintf("data/clean.k%d.sfa", k), buf.Bytes())
}

// asmOutput threads an assembly unit's identity and result through
// the pilot framework's opaque output slot.
type asmOutput struct {
	name string
	k    int
	res  assembler.Result
}

// shardReadSet splits reads into n fragment-preserving shards by
// round-robin over fragments.
func shardReadSet(rs seq.ReadSet, n int) []seq.ReadSet {
	out := make([]seq.ReadSet, n)
	for i := range out {
		out[i].Paired = rs.Paired
	}
	stride := 1
	if rs.Paired {
		stride = 2
	}
	for f := 0; f*stride < len(rs.Reads); f++ {
		s := f % n
		out[s].Reads = append(out[s].Reads, rs.Reads[f*stride:min((f+1)*stride, len(rs.Reads))]...)
	}
	return out
}

// combineStats folds per-shard pre-processing statistics.
func combineStats(a, b preprocess.Stats) preprocess.Stats {
	a.InputReads += b.InputReads
	a.OutputReads += b.OutputReads
	a.InputBases += b.InputBases
	a.OutputBases += b.OutputBases
	a.TrimmedBases += b.TrimmedBases
	a.DroppedNRich += b.DroppedNRich
	a.DroppedShort += b.DroppedShort
	a.DroppedDup += b.DroppedDup
	if a.OutputReads > 0 {
		a.MeanReadLen = float64(a.OutputBases) / float64(a.OutputReads)
	}
	return a
}

// dropNReads filters reads containing ambiguous bases.
func dropNReads(reads []seq.Read) []seq.Read {
	out := make([]seq.Read, 0, len(reads))
	for _, r := range reads {
		if seq.CountN(r.Seq) == 0 {
			out = append(out, r)
		}
	}
	return out
}
