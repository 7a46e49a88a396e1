// Package minia implements a single-node De Bruijn graph assembler
// modelled on Minia (Chikhi & Rizk 2013), one of Rnnotator's stock
// k-mer assemblers. Minia's defining idea is a memory-lean graph
// representation: k-mers are counted in a Bloom filter instead of a
// hash table, with an exact side structure for the solid set, cutting
// the per-k-mer footprint by an order of magnitude.
//
// This implementation performs the two real passes — Bloom-filter
// counting, then solid-k-mer collection — and walks contigs from the
// solid set. Its memory model reflects the Bloom representation: the
// same dataset that needs tens of GB in Velvet's table fits in a few.
package minia

import (
	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// Minia is the assembler. The zero value is ready to use.
type Minia struct {
	// BasesPerCoreSecond overrides the throughput calibration.
	BasesPerCoreSecond float64
	// BitsPerEntry sizes the counting Bloom filter (default 16 bits
	// per expected k-mer, ~1% false-positive rate at 4 hashes).
	BitsPerEntry int
}

// DefaultRate is Minia's per-core throughput in bases/second — slower
// than Velvet (two streaming passes) but far leaner.
const DefaultRate = 0.7e6

// Info implements assembler.Assembler.
func (m *Minia) Info() assembler.Info {
	return assembler.Info{Name: "minia", GraphType: "DBG", Distributed: "", Version: "1.6906"}
}

// Assemble implements assembler.Assembler.
func (m *Minia) Assemble(req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(m.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	coder, err := seq.NewKmerCoder(p.K)
	if err != nil {
		return assembler.Result{}, err
	}

	// Pass 0: estimate distinct k-mers to size the filter.
	var windows int64
	for i := range req.Reads {
		if n := len(req.Reads[i].Seq) - p.K + 1; n > 0 {
			windows += int64(n)
		}
	}
	bitsPer := m.BitsPerEntry
	if bitsPer <= 0 {
		bitsPer = 16
	}
	cbf := newCountingBloom(uint64(windows)*uint64(bitsPer)/4+64, 4)

	// Pass 1: stream k-mers through the counting Bloom filter.
	for i := range req.Reads {
		coder.ForEach(req.Reads[i].Seq, func(_ int, km seq.Kmer) bool {
			canon, _ := coder.Canonical(km)
			cbf.Add(canon)
			return true
		})
	}

	// Pass 2: collect solid k-mers (count ≥ cutoff per the filter;
	// the exact map stands in for Minia's marked-k-mer side structure
	// and removes counting false positives for downstream traversal).
	g, err := dbg.New(p.K)
	if err != nil {
		return assembler.Result{}, err
	}
	exact := map[seq.Kmer]uint32{}
	for i := range req.Reads {
		coder.ForEach(req.Reads[i].Seq, func(_ int, km seq.Kmer) bool {
			canon, _ := coder.Canonical(km)
			if cbf.Count(canon) >= uint8(min(p.MinCoverage, 15)) {
				exact[canon]++
			}
			return true
		})
	}
	for km, c := range exact {
		if c >= uint32(p.MinCoverage) {
			g.AddCount(km, c)
		}
	}
	contigs := g.Contigs("minia", p.MinContigLen)

	rate := m.BasesPerCoreSecond
	if rate <= 0 {
		rate = DefaultRate
	}
	bases := assembler.FullScaleBases(req.FullScale)
	// Two streaming passes over the data.
	ttc := vclock.ComputeCost{UnitsPerSecond: rate}.Time(bases, req.CoresPerNode)
	return assembler.Result{
		Contigs: contigs,
		TTC:     ttc,
		// The Bloom representation is Minia's selling point: ~2 bytes
		// per k-mer (filter) + a small solid-set overhead, vs the
		// 64-byte hash-table entries of the stock graph model.
		PeakMemoryGBPerNode: 1.0 + assembler.DistinctKmers(req.FullScale)*4/1e9,
		N50:                 dbg.N50(contigs),
	}, nil
}

// countingBloom is a 4-bit counting Bloom filter: counts saturate at
// 15, which is ample for coverage cutoffs.
type countingBloom struct {
	counters []uint8 // two 4-bit counters per byte
	bits     uint64  // number of counter slots
	hashes   int
}

// newCountingBloom sizes a filter with the given number of counter
// slots (rounded up) and hash functions.
func newCountingBloom(slots uint64, hashes int) *countingBloom {
	if slots < 64 {
		slots = 64
	}
	return &countingBloom{
		counters: make([]uint8, slots/2+1),
		bits:     slots,
		hashes:   hashes,
	}
}

// indexes derives h hash positions by double hashing the k-mer hash.
func (b *countingBloom) indexes(km seq.Kmer, fn func(idx uint64)) {
	h1 := km.Hash()
	h2 := h1>>33 | 1 // odd step
	for i := 0; i < b.hashes; i++ {
		fn((h1 + uint64(i)*h2) % b.bits)
	}
}

// get reads the 4-bit counter at slot i.
func (b *countingBloom) get(i uint64) uint8 {
	byteIdx, shift := i/2, (i%2)*4
	return b.counters[byteIdx] >> shift & 0xF
}

// inc increments the 4-bit counter at slot i, saturating at 15.
func (b *countingBloom) inc(i uint64) {
	byteIdx, shift := i/2, (i%2)*4
	cur := b.counters[byteIdx] >> shift & 0xF
	if cur < 15 {
		b.counters[byteIdx] += 1 << shift
	}
}

// Add inserts one occurrence of the k-mer.
func (b *countingBloom) Add(km seq.Kmer) {
	b.indexes(km, b.inc)
}

// Count reports the k-mer's estimated count: the minimum across its
// hash positions (counting-Bloom lower bound; may overestimate, never
// underestimates).
func (b *countingBloom) Count(km seq.Kmer) uint8 {
	var m uint8 = 15
	b.indexes(km, func(i uint64) {
		if c := b.get(i); c < m {
			m = c
		}
	})
	return m
}

// EstimateTTC implements assembler.TTCEstimator.
func (m *Minia) EstimateTTC(req assembler.Request) (vclock.Duration, error) {
	rate := m.BasesPerCoreSecond
	if rate <= 0 {
		rate = DefaultRate
	}
	return vclock.ComputeCost{UnitsPerSecond: rate}.Time(assembler.FullScaleBases(req.FullScale), req.CoresPerNode), nil
}
