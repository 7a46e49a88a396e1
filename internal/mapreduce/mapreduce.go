// Package mapreduce simulates a Hadoop-era MapReduce engine, the
// substrate of the Contrail assembler in the paper.
//
// Jobs execute for real — mappers and reducers are Go functions over
// real key/value data — while elapsed time is accounted in virtual
// seconds: a fixed per-job setup cost (the "Hadoop tax" of job
// submission, JVM spawning and HDFS staging), per-task overheads, and
// input/shuffle volume divided by per-slot processing rates, list-
// scheduled over the cluster's task slots.
//
// The model reproduces the paper's Contrail observations: with few
// workers an iterative assembler is very slow because every round's
// tasks serialize over scarce slots, while with many workers round
// time approaches the fixed per-round overhead, letting Contrail
// converge toward (but not beat) the MPI assemblers' TTC.
package mapreduce

import (
	"fmt"
	"sort"

	"rnascale/internal/vclock"
)

// KV is one key/value record.
type KV struct {
	Key   string
	Value string
}

// wireBytes estimates a record's serialized size, including framing.
func wireBytes(kv KV) int64 { return int64(len(kv.Key) + len(kv.Value) + 16) }

// TotalBytes sums the serialized size of a record set.
func TotalBytes(kvs []KV) int64 {
	var n int64
	for _, kv := range kvs {
		n += wireBytes(kv)
	}
	return n
}

// Job is one MapReduce job.
type Job struct {
	Name string
	// Map transforms one input record into zero or more intermediate
	// records.
	Map func(kv KV, emit func(KV))
	// Reduce folds all values of one key into zero or more output
	// records. Values arrive sorted for determinism.
	Reduce func(key string, values []string, emit func(KV))
	// Combine optionally pre-folds values map-side, cutting shuffle
	// volume. Same contract as Reduce's folding (must be associative).
	Combine func(key string, values []string) []string
	// NumReducers overrides the reducer task count (default: one per
	// worker).
	NumReducers int
}

// Config sizes the simulated Hadoop cluster.
type Config struct {
	// Workers is the number of worker nodes.
	Workers int
	// SlotsPerWorker is the concurrent task capacity per node
	// (Hadoop-1 era default: 2).
	SlotsPerWorker int
	// JobSetup is the fixed per-job overhead.
	JobSetup vclock.Duration
	// TaskOverhead is the per-task start cost (JVM spawn).
	TaskOverhead vclock.Duration
	// MapRate and ReduceRate are bytes processed per second per slot.
	MapRate, ReduceRate float64
	// SplitBytes is the map input split size (HDFS block).
	SplitBytes int64
	// VolumeScale multiplies byte volumes in *cost* computations
	// (default 1). Jobs that process scaled-down stand-in data but
	// must be billed at full dataset scale set this to the scale
	// ratio; together with a proportionally reduced SplitBytes, both
	// per-task cost and task fan-out land at full scale.
	VolumeScale float64
}

// DefaultConfig returns a cluster of n workers with Hadoop-1-era
// overheads, calibrated so that Contrail's Table III baseline (6,720 s
// at 2 nodes) and Fig. 3 convergence emerge.
func DefaultConfig(n int) Config {
	return Config{
		Workers:        n,
		SlotsPerWorker: 2,
		JobSetup:       25 * vclock.Second,
		TaskOverhead:   4 * vclock.Second,
		MapRate:        2e6,
		ReduceRate:     1.5e6,
		SplitBytes:     64 << 20,
	}
}

// Engine runs jobs on one simulated cluster.
type Engine struct {
	cfg Config
}

// NewEngine validates the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("mapreduce: %d workers", cfg.Workers)
	}
	if cfg.SlotsPerWorker <= 0 {
		return nil, fmt.Errorf("mapreduce: %d slots per worker", cfg.SlotsPerWorker)
	}
	if cfg.MapRate <= 0 || cfg.ReduceRate <= 0 {
		return nil, fmt.Errorf("mapreduce: non-positive processing rate")
	}
	if cfg.SplitBytes <= 0 {
		return nil, fmt.Errorf("mapreduce: split size %d", cfg.SplitBytes)
	}
	return &Engine{cfg: cfg}, nil
}

// Workers reports the configured worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// volumeScale normalizes the cost multiplier.
func (e *Engine) volumeScale() float64 {
	if e.cfg.VolumeScale <= 0 {
		return 1
	}
	return e.cfg.VolumeScale
}

// Result carries a finished job's output and accounting.
type Result struct {
	Output []KV
	// Elapsed is the job's virtual duration including setup.
	Elapsed vclock.Duration
	// MapTasks and ReduceTasks report the task fan-out.
	MapTasks, ReduceTasks int
	// ShuffleBytes is the intermediate volume after combining.
	ShuffleBytes int64
}

// Run executes one job over the input and returns its sorted output.
func (e *Engine) Run(job Job, input []KV) (Result, error) {
	if job.Map == nil || job.Reduce == nil {
		return Result{}, fmt.Errorf("mapreduce: job %q missing map or reduce", job.Name)
	}
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = e.cfg.Workers
	}

	// --- Split input ---
	splits := splitInput(input, e.cfg.SplitBytes)
	slots := vclock.NewSlotPool(e.cfg.Workers * e.cfg.SlotsPerWorker)

	// When billing a scaled stand-in dataset at full scale
	// (VolumeScale > 1), per-task costs are smoothed to the phase
	// mean: the full-scale job has VolumeScale× more records of
	// ordinary size, so the skew of individual oversized stand-in
	// records is an artifact that must not masquerade as straggler
	// tasks.
	smooth := e.volumeScale() > 1
	totalInput := float64(TotalBytes(input))

	// --- Map phase (real execution + virtual scheduling) ---
	interm := make([]map[string][]string, len(splits))
	for i, sp := range splits {
		m := make(map[string][]string)
		for _, kv := range sp {
			job.Map(kv, func(out KV) {
				m[out.Key] = append(m[out.Key], out.Value)
			})
		}
		if job.Combine != nil {
			for k, vs := range m {
				sort.Strings(vs)
				m[k] = job.Combine(k, vs)
			}
		}
		interm[i] = m
		taskBytes := float64(TotalBytes(sp))
		if smooth {
			taskBytes = totalInput / float64(len(splits))
		}
		cost := e.cfg.TaskOverhead + vclock.Duration(e.volumeScale()*taskBytes/e.cfg.MapRate)
		slots.Acquire(1, 0, cost)
	}
	mapDone := slots.Horizon()

	// --- Shuffle: partition by key hash ---
	partitions := make([]map[string][]string, reducers)
	for i := range partitions {
		partitions[i] = make(map[string][]string)
	}
	var shuffleBytes int64
	for _, m := range interm {
		for k, vs := range m {
			p := partitions[keyHash(k)%uint64(reducers)]
			p[k] = append(p[k], vs...)
			for _, v := range vs {
				shuffleBytes += int64(len(k) + len(v) + 16)
			}
		}
	}

	// --- Reduce phase ---
	rslots := vclock.NewSlotPool(e.cfg.Workers * e.cfg.SlotsPerWorker)
	var output []KV
	for _, p := range partitions {
		keys := make([]string, 0, len(p))
		var pbytes float64
		for k, vs := range p {
			keys = append(keys, k)
			for _, v := range vs {
				pbytes += float64(len(k) + len(v) + 16)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			vs := p[k]
			sort.Strings(vs)
			job.Reduce(k, vs, func(out KV) { output = append(output, out) })
		}
		if smooth {
			pbytes = float64(shuffleBytes) / float64(reducers)
		}
		cost := e.cfg.TaskOverhead + vclock.Duration(e.volumeScale()*pbytes/e.cfg.ReduceRate)
		rslots.Acquire(1, 0, cost)
	}
	reduceDone := rslots.Horizon()

	sort.Slice(output, func(a, b int) bool {
		if output[a].Key != output[b].Key {
			return output[a].Key < output[b].Key
		}
		return output[a].Value < output[b].Value
	})
	return Result{
		Output:       output,
		Elapsed:      e.cfg.JobSetup + vclock.Duration(mapDone) + vclock.Duration(reduceDone),
		MapTasks:     len(splits),
		ReduceTasks:  reducers,
		ShuffleBytes: shuffleBytes,
	}, nil
}

// RunChain executes jobs sequentially, feeding each job's output to
// the next, and returns the final output plus the summed duration —
// the execution pattern of iterative graph algorithms like Contrail.
func (e *Engine) RunChain(jobs []Job, input []KV) ([]KV, vclock.Duration, error) {
	cur := input
	var total vclock.Duration
	for i := range jobs {
		res, err := e.Run(jobs[i], cur)
		if err != nil {
			return nil, total, fmt.Errorf("mapreduce: chain step %d (%s): %w", i, jobs[i].Name, err)
		}
		cur = res.Output
		total += res.Elapsed
	}
	return cur, total, nil
}

// splitInput partitions records into contiguous splits of roughly
// maxBytes each (at least one split for non-empty input).
func splitInput(input []KV, maxBytes int64) [][]KV {
	if len(input) == 0 {
		return [][]KV{{}}
	}
	var splits [][]KV
	start := 0
	var acc int64
	for i, kv := range input {
		acc += wireBytes(kv)
		if acc >= maxBytes {
			splits = append(splits, input[start:i+1])
			start = i + 1
			acc = 0
		}
	}
	if start < len(input) {
		splits = append(splits, input[start:])
	}
	return splits
}

// keyHash is FNV-1a over the key.
func keyHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
