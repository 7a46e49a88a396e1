package core

import (
	"fmt"
	"strings"

	"rnascale/internal/assembler"
	"rnascale/internal/cloud"
	"rnascale/internal/cluster"
	"rnascale/internal/detonate"
	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// Pipeline is one configured run environment.
type Pipeline struct {
	cfg      Config
	clock    *vclock.Clock
	provider *cloud.Provider
	pm       *pilot.Manager

	// o is the run's observability bundle (never nil: New creates one
	// when the config does not supply it); bridge mirrors the pilot
	// state store into spans; runSpan is the root of the span tree.
	o       *obs.Obs
	bridge  *pilot.SpanBridge
	runSpan *obs.Span

	// jr drives the write-ahead run journal and the drivercrash fault
	// checkpoints; nil when the run is neither journaled nor resumed
	// and no drivercrash rule is armed.
	jr *runJournal

	// budget is the run-wide retry token bucket (nil = unlimited);
	// cutoff is the virtual time past which no new attempt may start
	// (0 = none), and cutoffOutcome says which config knob set it.
	budget        *pilot.RetryBudget
	cutoff        vclock.Time
	cutoffOutcome Outcome
}

// New builds a pipeline with a fresh simulated cloud.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	clock := vclock.NewClock(0)
	copts := cloud.DefaultOptions()
	if cfg.Cloud != nil {
		copts = *cfg.Cloud
	}
	// Stage backends may need markets the caller didn't configure:
	// default them. The spot market is seeded from FaultSeed so a run
	// is a pure function of its config.
	if cfg.Backends.AnySpot() && copts.Spot == nil {
		copts.Spot = &cloud.SpotOptions{Seed: cfg.FaultSeed}
	}
	if cfg.Backends.AnyServerless() && copts.Serverless == nil {
		copts.Serverless = &cloud.ServerlessOptions{}
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	var inj *faults.Injector
	if cfg.FaultPlan != nil {
		inj = faults.NewInjector(cfg.FaultPlan, cfg.FaultSeed, clock)
		inj.SetMetrics(o.Metrics)
		copts.Faults = inj
	}
	provider := cloud.NewProvider(clock, copts)
	provider.SetMetrics(o.Metrics)
	store := pilot.NewStateStore()
	pm := pilot.NewManager(provider, store, cluster.DefaultOptions())
	pm.SetObs(o)
	pl := &Pipeline{
		cfg:      cfg,
		clock:    clock,
		provider: provider,
		pm:       pm,
		o:        o,
		bridge:   pilot.NewSpanBridge(store, o),
	}
	if cfg.Journal != nil || cfg.Resume != nil || len(inj.DriverCrashTimes()) > 0 {
		pl.jr = newRunJournal(pl, cfg, inj)
	}
	if cfg.RetryBudget > 0 {
		pl.budget = pilot.NewRetryBudget(cfg.RetryBudget, cfg.RetryBudgetRefill)
	}
	// The run clock starts at 0, so durations from the config are
	// absolute cutoff times; when both are set the earlier wins.
	if cfg.Deadline > 0 {
		pl.cutoff = vclock.Time(cfg.Deadline)
		pl.cutoffOutcome = OutcomeDeadlineExceeded
	}
	if cfg.CancelAt > 0 && (pl.cutoff == 0 || vclock.Time(cfg.CancelAt) < pl.cutoff) {
		pl.cutoff = vclock.Time(cfg.CancelAt)
		pl.cutoffOutcome = OutcomeCancelled
	}
	if cfg.Breaker != nil {
		cb := cloud.NewCircuitBreaker(clock, *cfg.Breaker)
		cb.SetMetrics(o.Metrics)
		provider.SetBreaker(cb)
	}
	return pl
}

// Provider exposes the simulated cloud (for inspection in tests and
// benches).
func (pl *Pipeline) Provider() *cloud.Provider { return pl.provider }

// Obs exposes the pipeline's observability bundle (tracer + metric
// registry).
func (pl *Pipeline) Obs() *obs.Obs { return pl.o }

// Run executes the full workflow over a dataset and returns the
// report. On stage failure the partial report is returned along with
// the error, so callers can inspect how far the run got (Table IV's
// X cells are exactly such failures).
func Run(ds *simdata.Dataset, cfg Config) (*Report, error) {
	return New(cfg).Run(ds)
}

// Run executes the pipeline: the upload, then one loop over the stage
// table (PA, PB, PC; see stages.go). The loop owns what every stage
// shares — backend routing, the stage span, the cutoff check, vehicle
// launch, unit submission and checking, and the one failure exit
// after launch — and each descriptor supplies what differs.
func (pl *Pipeline) Run(ds *simdata.Dataset) (rep *Report, err error) {
	// The journal epilogue: an injected drivercrash unwinds out of an
	// arbitrary checkpoint and surfaces as DriverCrashError WITHOUT
	// teardown or a final journal record (the driver is gone — VMs
	// stay up, the journal prefix stays on disk). Every other exit
	// writes the journal's complete record.
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case driverCrashPanic:
				err = &DriverCrashError{At: v.at}
			case journalDriftPanic:
				err = fmt.Errorf("core: journal: %s", v.msg)
			default:
				panic(r)
			}
			return
		}
		if cerr := pl.jr.complete(pl.clock.Now(), pl.provider.TotalCost(), err); cerr != nil && err == nil {
			err = cerr
		}
	}()

	cfg := pl.cfg
	fs := ds.Profile.FullScale
	rep = &Report{Config: cfg, PerAssembler: map[string][]seq.FastaRecord{}}
	for _, name := range cfg.Assemblers {
		if _, err := assembler.Get(name); err != nil {
			return rep, err
		}
	}
	if cfg.Pattern == Conventional && cfg.Backends.AnyServerless() {
		return rep, fmt.Errorf("core: the conventional pattern shares one cluster across stages and cannot host serverless stages (%s)", cfg.Backends)
	}

	pl.runSpan = pl.o.Tracer.StartSpan(nil, obs.KindRun, "run", pl.clock.Now())
	pl.runSpan.SetAttr("scheme", cfg.Scheme.String())
	pl.runSpan.SetAttr("pattern", cfg.Pattern.String())
	pl.runSpan.SetAttr("assemblers", strings.Join(cfg.Assemblers, ","))
	pl.runSpan.SetAttr("profile", ds.Profile.Name)
	pl.jr.header(configDigest(cfg, ds), cfg.FaultSeed, ds.Profile.Name)

	// --- Stage 0: upload the raw data from the local server ---
	t0 := pl.clock.Now()
	xferScope := pl.beginStage("transfer")
	xferScope.attr("bytes", fmt.Sprintf("%d", fs.SeqDataBytes))
	pl.provider.UploadFromLocal(fs.SeqDataBytes)
	xferScope.end()
	rep.Stages = append(rep.Stages, StageReport{
		Name: "transfer", Start: t0, End: pl.clock.Now(),
		Note: fmt.Sprintf("%.1f GB to cloud", float64(fs.SeqDataBytes)/1e9),
	})

	// --- PA, PB, PC ---
	d := &runData{ds: ds, rep: rep, outputs: map[asmKey][]seq.FastaRecord{}}
	var vehicles []*stageExec // every vehicle launched so far
	for _, st := range []stage{pl.preprocessStage(d), pl.assemblyStage(d), pl.postprocessStage(d)} {
		backend, fallback := pl.routeBackend(cfg.Backends.For(st.name))
		first := len(vehicles) == 0
		// The first stage's flavour is chosen before it begins; later
		// stages choose theirs in nextStage, if they boot fresh nodes.
		var itype string
		if first {
			itype = "serverless"
			if backend != cloud.Serverless {
				if itype, err = instanceType(cfg, st.memGB); err != nil {
					return rep, err
				}
			}
		}
		sc := pl.beginStage(st.name)
		nodes := st.size(sc, backend)
		if first {
			sc.attr(obs.AttrInstanceType, itype)
		}
		sc.attr(obs.AttrNodes, fmt.Sprintf("%d", nodes))
		if pl.cutoffReached() {
			return pl.cutoffCancel(rep, sc, st.name, "", pl.clock.Now(), vehicles...)
		}
		var sx *stageExec
		var moved string
		if first {
			sx, err = pl.firstStage(st.name, itype, nodes, backend)
		} else {
			sx, moved, err = pl.nextStage(st.name, vehicles[len(vehicles)-1], nodes, backend, st.memGB, st.migrate())
		}
		if err != nil {
			return pl.abort(rep, sc, fmt.Errorf("core: launching %s: %w", st.name, err), vehicles)
		}
		vehicles = append(vehicles, sx)
		sc.attr(obs.AttrInstanceType, sx.instanceName())

		// After launch there is one failure exit: a FAILED row, the
		// failed span, teardown and the stamped partial report.
		start := pl.clock.Now()
		fail := func(err error) (*Report, error) {
			rep.Stages = append(rep.Stages, StageReport{Name: st.name, Pilot: sx.id(), Start: start, End: pl.clock.Now(), Note: "FAILED"})
			return pl.abort(rep, sc, err, vehicles)
		}
		runner, err := pl.newRunner(sx, st.name)
		if err != nil {
			return fail(err)
		}
		var descs []pilot.UnitDescription
		for _, u := range st.units(sx) {
			descs = append(descs, pilot.UnitDescription{
				Name: u.name, Slots: u.slots, Rule: u.rule, Retry: st.retry,
				Work: pl.jr.unit(st.name, u.name, u.work, u.codec),
			})
		}
		units, err := runner.Submit(descs)
		if err != nil {
			return fail(err)
		}
		if err := runner.Run(); err != nil {
			return fail(err)
		}
		for _, u := range units {
			if pl.canceledAtCutoff(u) {
				return pl.cutoffCancel(rep, sc, st.name, sx.id(), start, vehicles...)
			}
			if u.State() != pilot.UnitDone {
				return fail(st.failed(sx, u))
			}
			if st.fold != nil {
				st.fold(u)
			}
		}
		note, err := st.collect(sx, units)
		if err != nil {
			return fail(err)
		}
		sc.end()
		rep.Stages = append(rep.Stages, StageReport{
			Name: st.name, Pilot: sx.id(), Start: start, End: pl.clock.Now(),
			Note: note + moved + fallback,
		})
	}

	// --- Wrap up: terminate everything, bill, evaluate ---
	pl.teardown(vehicles...)
	rep.Outcome = OutcomeComplete
	rep.finish(pl)

	if cfg.EvaluateAgainstTruth {
		opts := detonate.DefaultOptions()
		opts.ReadBases = d.cleaned.TotalBases()
		// Score against the gene-annotation track when present — the
		// paper evaluates against predicted protein gene sequences,
		// not full mRNAs.
		truth := ds.Annotations
		if len(truth) == 0 {
			truth = ds.Transcripts
		}
		m, err := detonate.Evaluate(rep.Transcripts, truth, ds.Expression, opts)
		if err != nil {
			return rep, err
		}
		rep.Metrics = &m
	}
	return rep, nil
}

// abort ends a run at a stage failure: the stage span fails, every
// vehicle launched so far tears down, and the partial report is
// stamped and returned with the error.
func (pl *Pipeline) abort(rep *Report, sc *stageScope, err error, sxs []*stageExec) (*Report, error) {
	sc.fail(err)
	pl.teardown(sxs...)
	rep.finish(pl)
	return rep, err
}

// stageExec is the execution vehicle for one pipeline stage: a
// VM-backed pilot (on-demand or spot), or a serverless function
// runner.
type stageExec struct {
	pilot *pilot.Pilot
	faas  *pilot.FunctionRunner
}

// id reports the vehicle's state-store ID for stage reports.
func (sx *stageExec) id() string {
	if sx.faas != nil {
		return sx.faas.ID()
	}
	return sx.pilot.ID
}

// store exposes the vehicle's shared filesystem (NFS on a cluster, an
// object store for functions).
func (sx *stageExec) store() *cluster.SharedStore {
	if sx.faas != nil {
		return sx.faas.Store()
	}
	return sx.pilot.Cluster.Store()
}

// cores reports the per-allocation core count units size their slot
// requests by: the node flavour's cores on a pilot, one for functions.
func (sx *stageExec) cores() int {
	if sx.faas != nil {
		return 1
	}
	return sx.pilot.Cluster.InstanceType().Cores
}

func (sx *stageExec) instanceName() string {
	if sx.faas != nil {
		return "serverless"
	}
	return sx.pilot.Cluster.InstanceType().Name
}

// unitRunner is the slice of the unit-execution contract the pipeline
// drives, satisfied by both *pilot.UnitManager and
// *pilot.FunctionRunner.
type unitRunner interface {
	SetObs(*obs.Obs)
	SetOnUnitDone(func(*pilot.Unit, vclock.Time))
	SetRetryBudget(*pilot.RetryBudget)
	SetCutoff(vclock.Time)
	Submit([]pilot.UnitDescription) ([]*pilot.Unit, error)
	Run() error
}

// newRunner builds the unit runner for a stage vehicle, wired into the
// run's observability, journal, retry-budget and cutoff hooks.
func (pl *Pipeline) newRunner(sx *stageExec, stage string) (unitRunner, error) {
	var r unitRunner
	if sx.faas != nil {
		r = sx.faas
	} else {
		um := pilot.NewUnitManager(pl.pm.Store(), pl.clock, pilot.RoundRobin)
		if err := um.AddPilots(sx.pilot); err != nil {
			return nil, err
		}
		r = um
	}
	r.SetObs(pl.o)
	r.SetOnUnitDone(pl.jr.onUnitDone(stage))
	r.SetRetryBudget(pl.budget)
	r.SetCutoff(pl.cutoff)
	return r, nil
}

// cutoffReached reports whether the virtual clock crossed the run's
// cutoff (deadline or cancellation point).
func (pl *Pipeline) cutoffReached() bool {
	return pl.cutoff > 0 && pl.clock.Now() >= pl.cutoff
}

// canceledAtCutoff reports whether a unit terminated via the cutoff
// path: the runners transition units to CANCELED (never FAILED) when
// an attempt would start past the cutoff, and nothing else cancels
// units inside a pipeline run.
func (pl *Pipeline) canceledAtCutoff(u *pilot.Unit) bool {
	return pl.cutoff > 0 && u.State() == pilot.UnitCanceled
}

// cutoffCancel ends a run at its cutoff: the stage is closed with the
// outcome, a cancelled record is journaled (so a resume replays the
// same truncation byte-for-byte), every vehicle tears down, and the
// truncated report is stamped and returned with a *CutoffError.
func (pl *Pipeline) cutoffCancel(rep *Report, sc *stageScope, stage, pilotID string,
	start vclock.Time, sxs ...*stageExec) (*Report, error) {

	// A preempted unit leaves the clock where its attempt started;
	// the run still waited until the cutoff expired before giving up.
	if pl.clock.Now() < pl.cutoff {
		pl.clock.AdvanceTo(pl.cutoff)
	}
	now := pl.clock.Now()
	err := &CutoffError{Outcome: pl.cutoffOutcome, At: now, Cutoff: pl.cutoff}
	rep.Stages = append(rep.Stages, StageReport{
		Name: stage, Pilot: pilotID, Start: start, End: now, Note: string(pl.cutoffOutcome),
	})
	sc.fail(err)
	pl.jr.cancelled(string(pl.cutoffOutcome))
	pl.teardown(sxs...)
	rep.Outcome = pl.cutoffOutcome
	rep.finish(pl)
	return rep, err
}

// routeBackend applies the circuit breaker to a stage's requested
// backend: a tripped spot or serverless circuit routes the stage to
// the on-demand fallback. It returns the effective backend and a
// human-readable note suffix when a fallback happened.
func (pl *Pipeline) routeBackend(backend cloud.Backend) (cloud.Backend, string) {
	cb := pl.provider.Breaker()
	if cb == nil || backend == cloud.OnDemand || cb.Allow(backend) {
		return backend, ""
	}
	return cloud.OnDemand, fmt.Sprintf("; %s breaker open, on-demand fallback", backend)
}

// firstStage provisions the workflow's first execution vehicle: a
// pilot on the requested purchasing backend, or a function runner when
// the stage is serverless.
func (pl *Pipeline) firstStage(name, itype string, nodes int, backend cloud.Backend) (*stageExec, error) {
	if backend == cloud.Serverless {
		fr, err := pilot.NewFunctionRunner(pl.provider, pl.pm.Store(), name)
		if err != nil {
			return nil, err
		}
		return &stageExec{faas: fr}, nil
	}
	p, err := pl.pm.SubmitPilot(pilot.PilotDescription{
		Name: name, InstanceType: itype, Nodes: nodes, Backend: backend,
		// Under S2, VM lifetime belongs to the scheme, not the pilot.
		RetainVMs: pl.cfg.Scheme == S2 && pl.cfg.Pattern != Conventional,
	})
	if err != nil {
		return nil, err
	}
	return &stageExec{pilot: p}, nil
}

// release completes a finished stage's execution vehicle. When
// terminateVMs is set, VMs it retained under S2 are shut down too —
// the boundary into a serverless stage, where nothing will adopt them.
func (pl *Pipeline) release(sx *stageExec, terminateVMs bool) error {
	if sx.faas != nil {
		return sx.faas.Complete()
	}
	vms := sx.pilot.Cluster.VMs()
	if err := pl.pm.CompletePilot(sx.pilot); err != nil {
		return err
	}
	if terminateVMs {
		pl.provider.Terminate(vms...)
	}
	return nil
}

// nextStage provisions the execution vehicle for the next stage
// according to the matching scheme, workflow pattern and requested
// backend, migrating `stageBytes` of data from the previous stage's
// store. Fresh nodes get the flavour instanceType picks for memGB per
// node. It returns the vehicle and a human-readable note about any
// data transfer performed.
func (pl *Pipeline) nextStage(name string, prev *stageExec, nodes int, backend cloud.Backend,
	memGB float64, stageBytes int64) (*stageExec, string, error) {

	if pl.cfg.Pattern == Conventional {
		// Single-pilot workflow: reuse the original pilot untouched.
		return prev, "", nil
	}
	prevStore := prev.store()
	if backend == cloud.Serverless {
		// The stage runs as functions: its data moves to the object
		// store, and any VMs the previous stage retained have no
		// successor to adopt them, so they terminate now.
		fr, err := pilot.NewFunctionRunner(pl.provider, pl.pm.Store(), name)
		if err != nil {
			return nil, "", err
		}
		d := pl.provider.InterNodeTransfer(stageBytes)
		pl.clock.Advance(d)
		copyStore(prevStore, fr.Store())
		if err := pl.release(prev, true); err != nil {
			return nil, "", err
		}
		return &stageExec{faas: fr}, fmt.Sprintf("; %v transfer to object store", d), nil
	}
	if pl.cfg.Scheme == S2 && prev.pilot != nil {
		// Reuse the previous pilot's VMs; grow or shrink to size.
		if err := pl.pm.CompletePilot(prev.pilot); err != nil {
			return nil, "", err
		}
		vms := prev.pilot.Cluster.VMs()
		if len(vms) > nodes {
			// Terminate the excess (sample run: "other 35 VMs, which
			// are not necessary for PC, are terminated").
			pl.provider.Terminate(vms[nodes:]...)
			vms = vms[:nodes]
		} else if len(vms) < nodes {
			// Growth buys on the stage's requested backend; the adopted
			// nodes keep whichever market they were booted on.
			extra, err := pl.provider.RunInstancesOn(prev.pilot.Cluster.InstanceType().Name, nodes-len(vms), backend)
			if err != nil {
				return nil, "", err
			}
			pl.provider.WaitRunning(extra)
			pl.clock.Advance(cluster.DefaultOptions().ConfigPerNode)
			vms = append(vms, extra...)
		}
		p, err := pl.pm.SubmitPilot(pilot.PilotDescription{Name: name, ReuseVMs: vms})
		if err != nil {
			return nil, "", err
		}
		// Shared filesystem persists across pilots under S2: no
		// transfer, just carry the files over.
		copyStore(prevStore, p.Cluster.Store())
		return &stageExec{pilot: p}, "", nil
	}
	// S1 — or the previous stage ran serverless, leaving no VMs to
	// reuse: boot fresh nodes on the requested backend.
	itype, err := instanceType(pl.cfg, memGB)
	if err != nil {
		return nil, "", err
	}
	p, err := pl.pm.SubmitPilot(pilot.PilotDescription{
		Name: name, InstanceType: itype, Nodes: nodes, Backend: backend,
		RetainVMs: pl.cfg.Scheme == S2,
	})
	if err != nil {
		return nil, "", err
	}
	// Migrate data between the old and new stages' filesystems, then
	// release the previous stage's resources.
	d := pl.provider.InterNodeTransfer(stageBytes)
	pl.clock.Advance(d)
	copyStore(prevStore, p.Cluster.Store())
	if err := pl.release(prev, false); err != nil {
		return nil, "", err
	}
	return &stageExec{pilot: p}, fmt.Sprintf("; %v inter-pilot data transfer", d), nil
}

// teardown completes every stage vehicle and terminates all VMs.
func (pl *Pipeline) teardown(sxs ...*stageExec) {
	for _, sx := range sxs {
		if sx == nil {
			continue
		}
		if sx.faas != nil {
			_ = sx.faas.Complete()
		} else if sx.pilot != nil {
			_ = pl.pm.CompletePilot(sx.pilot)
		}
	}
	pl.provider.TerminateAll()
}

// finish stamps the report's totals and folds the observability state
// into the snapshot.
func (r *Report) finish(pl *Pipeline) {
	r.TTC = vclock.Duration(pl.clock.Now())
	r.CostUSD = pl.provider.TotalCost()
	r.Bill = pl.provider.Bill()
	r.Events = pl.pm.Store().History()
	pl.finishObs(r)
}

// copyStore copies every file between shared stores.
func copyStore(src, dst *cluster.SharedStore) {
	if src == dst || src == nil || dst == nil {
		return
	}
	for _, path := range src.List("") {
		_, _ = src.CopyTo(dst, path)
	}
}
