// Package kernelbench defines the fixed-seed microbenchmarks behind
// `benchtab -kernels` and the regression gate behind `make
// bench-gate`.
//
// Each kernel is one of the hot paths the ROADMAP's "raw speed" line
// targets — canonical k-mers, k-mer counting and DBG construction,
// FASTA/FASTQ parsing, the vclock slot scheduler, MPI collective
// rendezvous, the spot market's price walk, journal appends — run
// over a deterministic workload (a splitmix64-seeded
// synthetic genome, never math/rand), so that allocsPerOp and
// bytesPerOp are stable across runs and only nsPerOp carries
// machine noise. The gate (Compare) exploits that split: wall time
// gets a generous tolerance, allocation counts a tight one, which is
// how an alloc regression is caught even on a noisy CI machine.
package kernelbench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"rnascale/internal/cloud"
	"rnascale/internal/dbg"
	"rnascale/internal/journal"
	"rnascale/internal/mpi"
	"rnascale/internal/obs/perf"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// Result is one kernel's measurement, as recorded in the `kernels`
// section of BENCH_results.json.
type Result struct {
	Name string `json:"name"`
	perf.Measurement
}

// Env is the environment block recorded next to the kernel results:
// the facts needed to judge whether two measurements are comparable.
type Env struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the resolved sweep worker count of the pass (not the
	// raw -workers flag, which is 0 for "use GOMAXPROCS").
	Workers int `json:"workers"`
}

// CaptureEnv records the current environment with the given resolved
// worker count.
func CaptureEnv(workers int) Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
}

// Kernel is one named microbenchmark: Setup builds the fixed-seed
// workload (untimed), and the returned op is the measured unit.
type Kernel struct {
	Name  string
	Iters int
	Setup func() func()
}

// rng is a splitmix64 generator — the same construction
// internal/faults splits its streams from. Kernel workloads seed it
// with constants so every revision measures byte-identical inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genome returns a deterministic random genome of n bases.
func genome(seed uint64, n int) []byte {
	r := &rng{s: seed}
	const bases = "ACGT"
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[r.intn(4)]
	}
	return g
}

// shred cuts the genome into readLen-base reads at cov× coverage,
// tiling with a deterministic stagger.
func shred(g []byte, readLen, cov int) []seq.Read {
	var reads []seq.Read
	for c := 0; c < cov; c++ {
		offset := c * readLen / cov
		for start := offset; start+readLen <= len(g); start += readLen {
			reads = append(reads, seq.Read{
				ID:  fmt.Sprintf("r%d_%d", c, start),
				Seq: append([]byte(nil), g[start:start+readLen]...),
			})
		}
	}
	return reads
}

// Kernels returns the benchmark registry in its canonical order. The
// iteration counts are fixed (not time-calibrated) so the allocation
// columns are deterministic for a given Go toolchain.
func Kernels() []Kernel {
	return []Kernel{
		{
			// k-mer counting: the distinct-canonical-k-mer scan behind
			// the Table IV memory model.
			Name:  "seq.count_distinct",
			Iters: 40,
			Setup: func() func() {
				reads := shred(genome(1, 8192), 80, 3)
				coder := seq.MustKmerCoder(25)
				return func() {
					if coder.CountDistinct(reads) == 0 {
						panic("kernelbench: no k-mers")
					}
				}
			},
		},
		{
			// Canonical k-mers: the reverse complement every k-mer
			// count and every DBG lookup pays, over pre-encoded k-mers
			// at a one-word (31) and a two-word (63) k.
			Name:  "seq.canonical",
			Iters: 100,
			Setup: func() func() {
				type batch struct {
					coder seq.KmerCoder
					kmers []seq.Kmer
				}
				var batches []batch
				for _, k := range []int{31, 63} {
					b := batch{coder: seq.MustKmerCoder(k)}
					b.coder.ForEach(genome(uint64(8+k), 4096+k), func(_ int, km seq.Kmer) bool {
						b.kmers = append(b.kmers, km)
						return true
					})
					batches = append(batches, b)
				}
				return func() {
					canonical := 0
					for _, b := range batches {
						for _, km := range b.kmers {
							if _, ok := b.coder.Canonical(km); ok {
								canonical++
							}
						}
					}
					if canonical == 0 {
						panic("kernelbench: no canonical k-mers")
					}
				}
			},
		},
		{
			// DBG construction: count k-mers into the graph and drop
			// error singletons.
			Name:  "dbg.build",
			Iters: 30,
			Setup: func() func() {
				reads := shred(genome(2, 8192), 80, 3)
				return func() {
					g, err := dbg.Build(reads, 31, 2)
					if err != nil {
						panic(err)
					}
					if g.Len() == 0 {
						panic("kernelbench: empty graph")
					}
				}
			},
		},
		{
			// Unitig extraction over a prebuilt graph (Unitigs does not
			// mutate the graph, so iterations are independent). minCount
			// 1 keeps the staggered shred's singly-covered windows so the
			// graph spans the genome — this kernel measures extraction,
			// not error filtering.
			Name:  "dbg.unitigs",
			Iters: 40,
			Setup: func() func() {
				reads := shred(genome(3, 8192), 80, 3)
				g, err := dbg.Build(reads, 31, 1)
				if err != nil {
					panic(err)
				}
				return func() {
					if len(g.Unitigs(100)) == 0 {
						panic("kernelbench: no unitigs")
					}
				}
			},
		},
		{
			Name:  "seq.parse_fasta",
			Iters: 100,
			Setup: func() func() {
				recs := make([]seq.FastaRecord, 200)
				for i := range recs {
					recs[i] = seq.FastaRecord{
						ID:  fmt.Sprintf("contig%04d", i),
						Seq: genome(uint64(100+i), 400),
					}
				}
				var buf bytes.Buffer
				if err := seq.WriteFasta(&buf, recs, 80); err != nil {
					panic(err)
				}
				data := buf.Bytes()
				return func() {
					if _, err := seq.ParseFasta(bytes.NewReader(data)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:  "seq.parse_fastq",
			Iters: 100,
			Setup: func() func() {
				reads := shred(genome(4, 8192), 100, 2)
				var buf bytes.Buffer
				if err := seq.WriteFastq(&buf, reads); err != nil {
					panic(err)
				}
				data := buf.Bytes()
				return func() {
					if _, err := seq.ParseFastq(bytes.NewReader(data)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// The vclock list scheduler: the queueing model every
			// simulated runtime (SGE, boot workers, per-node cores)
			// funnels through.
			Name:  "vclock.slotpool",
			Iters: 40,
			Setup: func() func() {
				r := &rng{s: 5}
				ks := make([]int, 2048)
				ds := make([]vclock.Duration, len(ks))
				for i := range ks {
					ks[i] = 1 + r.intn(8)
					ds[i] = vclock.Duration(1 + r.intn(600))
				}
				return func() {
					pool := vclock.NewSlotPool(64)
					var at vclock.Time
					for i, k := range ks {
						at = pool.Acquire(k, at, ds[i])
					}
					if pool.Horizon() <= 0 {
						panic("kernelbench: empty schedule")
					}
				}
			},
		},
		{
			// MPI collective rendezvous: barrier + allreduce + alltoall
			// rounds over a 4-rank world, the communication pattern that
			// bounds the DBG assemblers' scale-out.
			Name:  "mpi.collective",
			Iters: 30,
			Setup: func() func() {
				return func() {
					_, err := mpi.Run(mpi.DefaultConfig(4), func(c *mpi.Comm) error {
						for round := 0; round < 8; round++ {
							c.Barrier()
							c.AllReduceInt(int64(c.Rank()+round), func(a, b int64) int64 { return a + b })
							payloads := make([]any, c.Size())
							sizes := make([]int64, c.Size())
							for d := range payloads {
								payloads[d] = round
								sizes[d] = 1 << 10
							}
							c.AlltoAll(payloads, sizes)
						}
						return nil
					})
					if err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// Spot-market price walk: the memoized per-AZ multiplicative
			// walk plus the windowed averages and launch-time reclaim
			// draws every spot bill and backend-aware plan funnels
			// through. A fresh market per op keeps the memoization from
			// turning later iterations into lookups.
			Name:  "cloud.spot_walk",
			Iters: 50,
			Setup: func() func() {
				it := cloud.C32XLarge
				return func() {
					m := cloud.NewSpotMarket(cloud.SpotOptions{Seed: 7})
					var acc float64
					for i := 0; i < 48; i++ {
						from := vclock.Time(i) * vclock.Time(600)
						to := from.Add(2 * vclock.Hour)
						az := m.CheapestAZ(from)
						acc += m.Price(it, az, from)
						acc += m.AvgFrac(az, from, to)
						acc += m.ExpectedReclaims(az, from, to)
						if _, ok := m.ReclaimAt(fmt.Sprintf("i-%06d", i), az, from); ok {
							acc++
						}
					}
					if acc <= 0 {
						panic("kernelbench: degenerate price walk")
					}
				}
			},
		},
		{
			// Journal append without fsync: the marshal+digest+write
			// path (durability cost is the disk's, not the kernel's).
			Name:  "journal.append",
			Iters: 100,
			Setup: func() func() {
				payload := genome(6, 256)
				return func() {
					w := journal.NewWriter(io.Discard)
					for i := 0; i < 256; i++ {
						if _, err := w.Append(journal.Record{
							Kind:   journal.KindUnit,
							Stage:  "PB",
							Unit:   "unit-0001",
							VTime:  float64(i),
							Digest: journal.Digest(payload),
						}); err != nil {
							panic(err)
						}
					}
				}
			},
		},
		{
			// Contended group commit: 8 goroutines racing Append through
			// the batch-64 flusher, the coalescing path the gateway's
			// event log and concurrent pipeline stages exercise. Sync is
			// a no-op so the kernel measures batching overhead (queueing,
			// wakeups, chain computation), not disk latency.
			Name:  "journal.append_contended",
			Iters: 50,
			Setup: func() func() {
				payload := genome(7, 256)
				digest := journal.Digest(payload)
				return func() {
					w := journal.NewSyncedWriter(io.Discard, func() error { return nil },
						journal.Options{BatchSize: 64})
					var wg sync.WaitGroup
					for g := 0; g < 8; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for i := 0; i < 32; i++ {
								if _, err := w.Append(journal.Record{
									Kind:   journal.KindUnit,
									Stage:  "PB",
									Unit:   fmt.Sprintf("unit-%d", g),
									VTime:  float64(i),
									Digest: digest,
								}); err != nil {
									panic(err)
								}
							}
						}(g)
					}
					wg.Wait()
					if err := w.Close(); err != nil {
						panic(err)
					}
				}
			},
		},
	}
}

// Run measures one kernel.
func Run(k Kernel) Result {
	op := k.Setup()
	return Result{Name: k.Name, Measurement: perf.Measure(k.Iters, op)}
}

// RunAll measures every registered kernel in canonical order.
func RunAll() []Result {
	ks := Kernels()
	out := make([]Result, len(ks))
	for i, k := range ks {
		out[i] = Run(k)
	}
	return out
}

// Tolerance bounds the acceptable regression per column, as a
// fraction of the baseline (0.5 = +50%). Wall time needs headroom
// for machine noise; allocation counts are deterministic for a fixed
// workload and toolchain, so they get tight bounds — which is what
// catches an alloc regression that wall-time jitter would hide.
type Tolerance struct {
	Time   float64
	Allocs float64
	Bytes  float64
}

// DefaultTolerance is the gate's default: +50% wall time, +10%
// allocations, +25% allocated bytes.
func DefaultTolerance() Tolerance {
	return Tolerance{Time: 0.50, Allocs: 0.10, Bytes: 0.25}
}

// Compare judges current kernel results against a baseline. It
// returns a human-readable delta table and, when any baseline kernel
// regressed beyond tolerance or is missing from current, an error
// listing every failure. Kernels present only in current are listed
// as new and do not fail the gate (they have no baseline yet).
func Compare(baseline, current []Result, tol Tolerance) (string, error) {
	cur := make(map[string]Result, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	base := make(map[string]bool, len(baseline))

	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %12s %8s %8s %8s  %s\n",
		"kernel", "base ns/op", "cur ns/op", "Δtime", "Δallocs", "Δbytes", "status")
	var failures []string
	for _, br := range baseline {
		base[br.Name] = true
		cr, ok := cur[br.Name]
		if !ok {
			fmt.Fprintf(&b, "%-22s %12.0f %12s %8s %8s %8s  MISSING\n",
				br.Name, br.NsPerOp, "-", "-", "-", "-")
			failures = append(failures, fmt.Sprintf("%s: missing from current results", br.Name))
			continue
		}
		dTime := delta(br.NsPerOp, cr.NsPerOp)
		dAllocs := delta(br.AllocsPerOp, cr.AllocsPerOp)
		dBytes := delta(br.BytesPerOp, cr.BytesPerOp)
		status := "ok"
		var why []string
		if dTime > tol.Time {
			why = append(why, fmt.Sprintf("time %+.0f%% > %+.0f%%", dTime*100, tol.Time*100))
		}
		if dAllocs > tol.Allocs {
			why = append(why, fmt.Sprintf("allocs %+.0f%% > %+.0f%%", dAllocs*100, tol.Allocs*100))
		}
		if dBytes > tol.Bytes {
			why = append(why, fmt.Sprintf("bytes %+.0f%% > %+.0f%%", dBytes*100, tol.Bytes*100))
		}
		if len(why) > 0 {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %s", br.Name, strings.Join(why, ", ")))
		}
		fmt.Fprintf(&b, "%-22s %12.0f %12.0f %7.0f%% %7.0f%% %7.0f%%  %s\n",
			br.Name, br.NsPerOp, cr.NsPerOp, dTime*100, dAllocs*100, dBytes*100, status)
	}
	for _, r := range current {
		if !base[r.Name] {
			fmt.Fprintf(&b, "%-22s %12s %12.0f %8s %8s %8s  new\n",
				r.Name, "-", r.NsPerOp, "-", "-", "-")
		}
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("kernelbench: %d kernel(s) regressed beyond tolerance:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}

// delta returns (cur-base)/base, treating a zero baseline as "any
// growth is infinite" unless current is also zero.
func delta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1e9
	}
	return (cur - base) / base
}
