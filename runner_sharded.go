package repro

import (
	"context"
	"io"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// ShardedRunner is the fleet front (internal/fleet, DESIGN.md §12) as a
// public Runner: it consistent-hashes canonical spec identities across N
// vpserved shards, scatters batches as batch-sync frames, gathers records
// back into deterministic spec order, probes shard health (fleets of two
// or more), and re-routes around dead or draining shards. With one shard
// (OpenRemoteRunner) it is the client for a single daemon. Results are byte-identical to a
// LocalRunner over the same specs and windows — sharding changes where a
// simulation runs, never what it computes. Safe for concurrent use.
type ShardedRunner struct {
	f   *fleet.Runner
	obs *runnerObs // nil when unobserved
}

// Interface compliance is part of the facade contract.
var _ Runner = (*ShardedRunner)(nil)

// OpenShardedRunner builds a fleet front over o.Shards (vpserved base
// URLs); a URL that is not http(s) with a host is refused by name. Windows,
// workers and the store belong to each shard daemon; o.Metrics and
// o.TraceWriter attach client-side observability
// (repro_dispatch_seconds{backend} plus a dispatch span per Simulate),
// exactly like the other Open constructors. The backend label is "sharded"
// for a fleet and "remote" for a single daemon.
func OpenShardedRunner(o RunnerOptions) (*ShardedRunner, error) {
	f, err := fleet.New(o.Shards)
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if o.TraceWriter != nil {
		tracer = obs.NewTracer(o.TraceWriter)
	}
	backend := "sharded"
	if len(o.Shards) == 1 {
		backend = "remote"
	}
	return &ShardedRunner{f: f, obs: newRunnerObs(o.Metrics, tracer, backend)}, nil
}

// OpenRemoteRunner builds a runner against one vpserved daemon at baseURL
// (e.g. "http://127.0.0.1:8437"): a one-shard ShardedRunner, so a single
// daemon and a fleet share one dispatch path — batch-sync frames, program
// re-upload after a daemon restart, typed *APIError failures. o.Metrics and
// o.TraceWriter apply as for OpenShardedRunner (backend="remote"); o.Shards
// is replaced by baseURL, and the remaining fields describe a local session
// the daemon owns itself.
func OpenRemoteRunner(baseURL string, o RunnerOptions) (*ShardedRunner, error) {
	o.Shards = []string{baseURL}
	return OpenShardedRunner(o)
}

// Shards reports every shard's current health (url, id, up/draining/down),
// in configuration order — the client-side view the fleet routes by.
func (r *ShardedRunner) Shards() []fleet.ShardStatus { return r.f.Shards() }

// ProbeShards refreshes every shard's health once, synchronously, ahead of
// the background prober's next tick.
func (r *ShardedRunner) ProbeShards(ctx context.Context) { r.f.ProbeOnce(ctx) }

// Simulate routes one spec to its owning shard (Runner interface).
func (r *ShardedRunner) Simulate(ctx context.Context, spec Spec) (Record, error) {
	start := time.Now()
	rec, err := r.f.Simulate(ctx, spec)
	r.obs.observe(spec.Canonical(), start, err)
	return rec, err
}

// Batch scatters the specs across their owning shards and delivers records
// to fn in spec order (Runner interface). Records arrive per batch-sync
// frame of at most 256 specs; each frame is bounded by its daemon's
// RequestTimeout, and a frame that fails (a timeout, an oversized frame, a
// bad spec) is bisected until the failure is pinned to one spec.
func (r *ShardedRunner) Batch(ctx context.Context, specs []Spec, fn func(Record) error) error {
	return r.f.Batch(ctx, specs, fn)
}

// Experiment regenerates one experiment by id (Runner interface).
// o.Workers is ignored — concurrency belongs to each shard's pool; nonzero
// windows must match the shards' windows: sizing is per daemon.
func (r *ShardedRunner) Experiment(ctx context.Context, id string, o ExperimentOptions, w io.Writer) error {
	return r.f.Experiment(ctx, id, fleet.ExperimentOptions{
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Format:  o.Format,
	}, w)
}

// Experiments fetches the experiment index from any healthy shard (Runner
// interface).
func (r *ShardedRunner) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	return r.f.Experiments(ctx)
}

// RegisterProgram uploads p to every shard and remembers its bytes for
// re-upload self-healing (Runner interface). The content-addressed workload
// id is the same on every shard and every backend.
func (r *ShardedRunner) RegisterProgram(ctx context.Context, p *Program) (string, error) {
	return r.f.RegisterProgram(ctx, p)
}

// Close stops the health prober and releases pooled connections.
func (r *ShardedRunner) Close() error { return r.f.Close() }
