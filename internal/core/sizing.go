package core

import (
	"rnascale/internal/assembler"
	"rnascale/internal/preprocess"
	"rnascale/internal/sge"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// This file holds the sizing decisions Run executes and Predict
// prices. Each is defined once, so the plan and the run cannot drift
// apart.

// stageSlotCap caps the slots a PA or PC unit requests: the pre- and
// post-processing tools use at most 8 cores.
const stageSlotCap = 8

// sfaConversion is the virtual time charged to every Contrail job for
// converting its reads to SFA (the paper's 1 min).
const sfaConversion = 60 * vclock.Second

// stageSlots is the slot request of a PA or PC unit on cores-wide
// nodes.
func stageSlots(cores int) int { return min(cores, stageSlotCap) }

// preprocessShards is the PA shard count: the configured count, at
// least one.
func preprocessShards(cfg Config) int { return max(1, cfg.ParallelPreprocessShards) }

// kmerPlan resolves the multiple-k-mer plan. The run passes the mean
// read length pre-processing measured; the planner and the
// Conventional pattern's up-front sizing pass 0, which stands for the
// profile's nominal read length.
func kmerPlan(cfg Config, prof simdata.Profile, meanReadLen float64) []int {
	if len(cfg.Kmers) > 0 {
		return cfg.Kmers
	}
	if len(prof.FullScale.AssemblyKmers) > 0 {
		return prof.FullScale.AssemblyKmers
	}
	if meanReadLen <= 0 {
		meanReadLen = float64(prof.ReadLen)
	}
	return preprocess.KmerPlan(meanReadLen, prof.ReadLen)
}

// assemblyNodes resolves the PB cluster size: the configured override,
// else the dynamic-sizing rule over the k-mer plan.
func assemblyNodes(cfg Config, kmers []int) int {
	if cfg.AssemblyNodesOverride > 0 {
		return cfg.AssemblyNodesOverride
	}
	return AssemblyNodesFor(kmers, cfg.Assemblers, cfg.NodesPerMPIJob, cfg.ContrailNodes)
}

// instanceType picks the VM flavour of a stage whose nodes need memGB
// each: the dynamic pattern's cheapest fit, or the configured type.
func instanceType(cfg Config, memGB float64) (string, error) {
	if cfg.Pattern != DistributedDynamic {
		return cfg.InstanceType, nil
	}
	it, err := ChooseInstanceType(nil, memGB, 8)
	if err != nil {
		return "", err
	}
	return it.Name, nil
}

// jobShape is the shape of one assembler's per-k PB job.
type jobShape struct {
	// nodes is the node count the job spans; the job asks for nodes ×
	// cores slots under rule.
	nodes int
	rule  sge.AllocationRule
	// extra is virtual time charged on top of the assembler's own TTC.
	extra vclock.Duration
}

// assemblyJob shapes the PB job of the named assembler. MPI tools span
// NodesPerMPIJob nodes, Contrail spans ContrailNodes under FillUp,
// single-node tools take one node. On a serverless PB every job is
// one single-core invocation: multi-node shapes do not exist there, so
// the assembler runs sequentially and long jobs split at the duration
// cap instead.
func assemblyJob(cfg Config, name string, a assembler.Assembler, serverless bool) jobShape {
	s := jobShape{nodes: cfg.NodesPerMPIJob, rule: sge.SingleNode}
	switch {
	case serverless:
		s.nodes = 1
	case name == "contrail":
		s.nodes, s.rule = cfg.ContrailNodes, sge.FillUp
	case !a.Info().MultiNode():
		s.nodes = 1
	}
	if s.nodes > 1 {
		s.rule = sge.FillUp
	}
	if name == "contrail" {
		// Contrail cannot handle N bases: it reads the N-free subset in
		// SFA, converted per job.
		s.extra = sfaConversion
	}
	return s
}
