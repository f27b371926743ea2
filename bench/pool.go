package main

import (
	"context"
	"fmt"
	"time"

	"repro/faqs"
	"repro/internal/exec"
	"repro/internal/plan"
)

// engineWorkers is the engine width of every workload: the host has two
// processors.
const engineWorkers = 2

// solvePool is the state shared by the workloads whose operation is one
// Engine.Solve over a fixed pool of generated queries.
type solvePool struct {
	brute     bool // references from faq.BruteForce (smoke sizes)
	specs     []*querySpec
	queries   []*faqs.Query   // built through the public builders in set-up
	internals []internalQuery // the internal twins (references, traced replay)
	refs      []*reference
	seq       []int // the fixed operation sequence, as indices into specs
	engine    *faqs.Engine
}

// build assembles the façade queries — the part of set-up a library
// embedder pays too.
func (p *solvePool) build() error {
	p.queries = make([]*faqs.Query, len(p.specs))
	for i, s := range p.specs {
		q, err := s.facade()
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		p.queries[i] = q
	}
	return nil
}

func (p *solvePool) buildInternals() error {
	if p.internals != nil {
		return nil
	}
	p.internals = make([]internalQuery, len(p.specs))
	for i, s := range p.specs {
		q, err := newInternal(s)
		if err != nil {
			return fmt.Errorf("internal twin of query %d: %w", i, err)
		}
		p.internals[i] = q
	}
	return nil
}

// The workload methods every pool-backed workload shares: the sequence
// is walked cyclically, in this process.
func (p *solvePool) cyclic() bool   { return true }
func (p *solvePool) numOps() int    { return len(p.seq) }
func (p *solvePool) targetPID() int { return 0 }

func (p *solvePool) closeEngine() {
	if p.engine != nil {
		p.engine.Close()
		p.engine = nil
	}
}

func (p *solvePool) prepareReferences() error {
	if err := p.buildInternals(); err != nil {
		return err
	}
	p.refs = make([]*reference, len(p.specs))
	for i, q := range p.internals {
		ref, err := q.reference(p.brute)
		if err != nil {
			return fmt.Errorf("reference for query %d: %w", i, err)
		}
		p.refs[i] = ref
	}
	return nil
}

// solve is the whole operation through the public path.
func (p *solvePool) solve(ctx context.Context, idx int) (*answer, error) {
	res, err := p.engine.Solve(ctx, p.queries[idx])
	if err != nil {
		return nil, err
	}
	return answerOf(res), nil
}

// do runs and verifies operation i of the sequence.
func (p *solvePool) do(ctx context.Context, _, i int) (time.Duration, error) {
	idx := p.seq[i]
	t0 := time.Now()
	got, err := p.solve(ctx, idx)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if !p.refs[idx].matches(got) {
		return 0, fmt.Errorf("query %d: answer %s differs from reference %s", idx, got.digest(), p.refs[idx].ans.digest())
	}
	return d, nil
}

// warm runs the given operations unverified and untimed.
func (p *solvePool) warm(ctx context.Context, idxs []int) error {
	for _, idx := range idxs {
		if _, err := p.solve(ctx, idx); err != nil {
			return fmt.Errorf("warm-up on query %d: %w", idx, err)
		}
	}
	return nil
}

// localParts is the stage-by-stage replay of a local solve against a
// bench-owned plan cache and pool shaped like the engine's.
func (p *solvePool) localParts(cache *plan.Cache, pool *exec.Pool) func(context.Context, *recorder, int, int, int) (replayResult, error) {
	return func(ctx context.Context, rec *recorder, parent, op, idx int) (replayResult, error) {
		return p.internals[idx].replay(ctx, rec, parent, op, cache, pool, nil)
	}
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
