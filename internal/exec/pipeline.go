package exec

import (
	"repro/internal/types"
)

// This file implements the morsel-driven parallel pipeline driver: the
// operator chain between a scan leaf and its pipeline breaker (hash
// aggregation, join build, sort) is compiled into per-worker instances
// so every morsel worker runs filter → projection → expression eval on
// its own batches and feeds worker-local breaker state — no cross-worker
// batch handoff on the hot path. The breaker merges worker-local state
// once (partial-aggregate key tables, per-worker build stores, sorted
// runs). This is the HyPer-style morsel-driven design: the scan workers
// PR 1 introduced stop funnelling through a single-threaded callback and
// instead carry the whole pipeline to the breaker.

// ParallelSource is a scan leaf that can fan one execution out to many
// workers (core.TableScan implements it; the exec test suite provides an
// in-memory one).
type ParallelSource interface {
	Operator
	// MaxWorkers reports the configured parallelism ceiling (engine
	// Options.Parallelism); <= 1 means the source should be consumed
	// serially through Next.
	MaxWorkers() int
	// ScanWorkers runs one execution, delivering batches CONCURRENTLY
	// to fn from up to workers goroutines with the producing worker's
	// id (0..workers-1). Batches are transient: valid only until fn
	// returns. fn returning false stops the scan early. All workers
	// have exited when ScanWorkers returns.
	ScanWorkers(workers int, fn func(worker int, b *types.Batch) bool) error
}

// stageSpec is a pipeline stage (*Filter or *Projection);
// newWorkerStage instantiates the per-worker state (private selection
// buffers, output batches) so workers never share mutable state. The
// underlying Exprs are shared: expression evaluation is read-only.
type stageSpec interface {
	newWorkerStage() workerStage
}

// workerStage is one worker's instance of a stage. apply transforms a
// batch into the stage's output batch — owned by the stage and valid
// only until its next apply — or nil when every row was filtered out.
type workerStage interface {
	apply(b *types.Batch) (*types.Batch, error)
}

func (f *Filter) newWorkerStage() workerStage { return &Filter{pred: f.pred} }

func (p *Projection) newWorkerStage() workerStage {
	return &Projection{exprs: p.exprs, schema: p.schema}
}

// Pipeline wraps the operator chain between a parallel scan leaf and a
// pipeline breaker. To serial consumers it is a transparent Operator
// (Next/Reset delegate to the wrapped chain, so any breaker or cursor
// that does not understand pipelines keeps working); breakers that do
// (HashAggregate, HashJoin build, Sort) call ForEach to execute the
// chain per-worker.
type Pipeline struct {
	serial  Operator
	source  ParallelSource
	stages  []stageSpec // bottom-up: stages[0] is closest to the scan
	workers int
}

// MarkPipeline inspects the chain rooted at op — the input of a pipeline
// breaker — and, when it consists of Filter/Projection stages over a
// ParallelSource and workers > 1, wraps it in a Pipeline sized
// min(workers, source.MaxWorkers()). Any other shape (generic operators
// in the chain, a non-parallel leaf, serial configuration) is returned
// unchanged. The SQL planner calls this when it places a breaker.
func MarkPipeline(op Operator, workers int) Operator {
	if workers <= 1 {
		return op
	}
	var topDown []stageSpec
	cur := op
	for {
		switch v := cur.(type) {
		case *Filter:
			topDown = append(topDown, v)
			cur = v.in
		case *Projection:
			topDown = append(topDown, v)
			cur = v.in
		case ParallelSource:
			if v.MaxWorkers() <= 1 {
				return op
			}
			if v.MaxWorkers() < workers {
				workers = v.MaxWorkers()
			}
			stages := make([]stageSpec, len(topDown))
			for i := range topDown {
				stages[len(topDown)-1-i] = topDown[i]
			}
			return &Pipeline{serial: op, source: v, stages: stages, workers: workers}
		default:
			return op
		}
	}
}

// Schema implements Operator.
func (p *Pipeline) Schema() *types.Schema { return p.serial.Schema() }

// Next implements Operator: the serial fallback, identical to executing
// the wrapped chain directly.
func (p *Pipeline) Next() (*types.Batch, error) { return p.serial.Next() }

// Reset implements Operator.
func (p *Pipeline) Reset() { p.serial.Reset() }

// Workers returns the pipeline's worker count.
func (p *Pipeline) Workers() int { return p.workers }

// ForEach runs one parallel execution of the pipeline: fn observes
// every post-stage batch on the goroutine of the worker that produced
// it (ids 0..Workers()-1). fn must be safe for concurrent calls with
// distinct worker ids; batches are transient — valid only until fn
// returns. A non-nil error from fn stops the whole pipeline and is
// returned; otherwise the source's error (e.g. context cancellation)
// is. All workers have exited when ForEach returns.
func (p *Pipeline) ForEach(fn func(worker int, b *types.Batch) error) error {
	chains := make([][]workerStage, p.workers)
	errs := make([]error, p.workers)
	srcErr := p.source.ScanWorkers(p.workers, func(w int, b *types.Batch) bool {
		chain := chains[w]
		if chain == nil {
			chain = make([]workerStage, len(p.stages))
			for i, sp := range p.stages {
				chain[i] = sp.newWorkerStage()
			}
			chains[w] = chain
		}
		for _, st := range chain {
			nb, err := st.apply(b)
			if err != nil {
				errs[w] = err
				return false
			}
			if nb == nil || nb.Len() == 0 {
				return true
			}
			b = nb
		}
		if err := fn(w, b); err != nil {
			errs[w] = err
			return false
		}
		return true
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return srcErr
}
