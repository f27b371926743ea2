package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/faqs"
	iexec "repro/internal/exec"
)

// viewChurn keeps three incremental views resident and churns them:
// writes beside reads. The delta layer dominates, and it uses the
// relation kernels differently from the join path (PatchAdd, HashIndex),
// so a kernel change that helps kernel_large but hurts patching shows
// here. It is also the only workload whose state grows.
type viewChurn struct {
	cfg *config

	views []*viewState
	ops   []viewOp
	// The timed walk starts after the warm-up prefix of ops.
	engine *faqs.Engine

	// shadow is the reference model, advanced lazily to the op index a
	// checkpoint asks about by re-applying the recorded operations.
	shadow    [][]liveSet
	shadowAt  int
	nextCheck int
}

// viewState is one resident view and the role it plays in the mix.
type viewState struct {
	name     string // ring, support, ledger: the maintenance path exercised
	strategy string // what Materialized.Strategy must report for it
	spec     *querySpec
	mat      *faqs.Materialized
}

// liveSet is the multiset of contributions currently in one factor.
type liveSet []tupleVal

type viewOp struct {
	view    int
	read    bool
	edge    int
	inserts []tupleVal
	deletes []tupleVal
	delIdx  []int // positions the deletes were swap-removed from, in order
	// The same update in the façade's representation, converted in
	// set-up so the timed call is the engine's work alone.
	fInserts, fDeletes []faqs.TupleUpdate
}

func (w *viewChurn) clients() int   { return 1 }
func (w *viewChurn) cyclic() bool   { return false }
func (w *viewChurn) numOps() int    { return len(w.ops) - w.cfg.sz.viewWarm }
func (w *viewChurn) targetPID() int { return 0 }
func (w *viewChurn) checkEvery() int {
	return w.cfg.sz.viewCheckEvery
}

func initialLive(spec *querySpec) []liveSet {
	out := make([]liveSet, len(spec.Factors))
	for e := range spec.Factors {
		f := &spec.Factors[e]
		ls := make(liveSet, f.len())
		for i := range ls {
			ls[i] = tupleVal{Row: f.tuple(i), Val: 1}
			if f.Values != nil {
				ls[i].Val = f.Values[i]
			}
		}
		out[e] = ls
	}
	return out
}

// apply folds one update into a model: deletes swap-remove the recorded
// positions, inserts append.
func (op *viewOp) apply(live []liveSet) {
	ls := live[op.edge]
	for _, at := range op.delIdx {
		ls[at] = ls[len(ls)-1]
		ls = ls[:len(ls)-1]
	}
	live[op.edge] = append(ls, op.inserts...)
}

func toFacade(ups []tupleVal, plain bool) []faqs.TupleUpdate {
	out := make([]faqs.TupleUpdate, len(ups))
	for i := range ups {
		out[i].Tuple = ups[i].Row
		if !plain {
			out[i].Value = &ups[i].Val
		}
	}
	return out
}

// generate builds the three views' inputs and the fixed operation
// sequence: 60 % Count updates (ring deltas), 20 % Bool updates (support
// counting), 10 % MinPlus updates (ledger recompute), 10 % Answer reads;
// one update in eight is a 64-tuple batch; edges cover leaf and internal
// factors alike. Deletes always name a live contribution, so no
// operation fails.
func (w *viewChurn) generate() {
	sz := w.cfg.sz
	rng := rand.New(rand.NewSource(w.cfg.seed ^ 0x76696577)) // "view"
	mk := func(name, strategy, tpl, sem string, n int) *viewState {
		dom := max(n, 16)
		if sem == "bool" {
			// Sparse enough that inserted support changes the answer.
			dom = max(n/2, 16)
		}
		return &viewState{name: name, strategy: strategy, spec: fill(templateShape(tpl), sem, n, dom, rng, true)}
	}
	w.views = []*viewState{
		mk("ring", "ring", "path7", "count", sz.viewN),
		mk("support", "support", "star6", "bool", sz.viewN),
		mk("ledger", "recompute", "tree6", "minplus", sz.viewLedgerN),
	}
	live := make([][]liveSet, len(w.views))
	for v, vs := range w.views {
		live[v] = initialLive(vs.spec)
	}
	// The mix is exact in every block of 80 operations and only its order
	// is random; each view's updates rotate over its edges and every
	// eighth is a batch. A random mix would let the number of 64-tuple
	// batches, and with it every timing, drift from seed to seed.
	const blockLen = 80
	block := make([]int, 0, blockLen) // view index, or -1 for a read
	for v, share := range []int{48, 16, 8} {
		for i := 0; i < share; i++ {
			block = append(block, v)
		}
	}
	for len(block) < blockLen {
		block = append(block, -1)
	}
	updates, singles, batches := make([]int, len(w.views)), make([]int, len(w.views)), make([]int, len(w.views))
	reads := 0
	w.ops = make([]viewOp, sz.viewOps)
	for i := range w.ops {
		if i%blockLen == 0 {
			rng.Shuffle(blockLen, func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		op := &w.ops[i]
		if op.view = block[i%blockLen]; op.view < 0 {
			op.view, op.read = reads%len(w.views), true
			reads++
			continue
		}
		spec := w.views[op.view].spec
		tuples, turn := 1, &singles[op.view]
		if updates[op.view]%8 == 7 {
			tuples, turn = 64, &batches[op.view]
		}
		updates[op.view]++
		op.edge = *turn % len(spec.Factors)
		*turn++
		ls := live[op.view][op.edge]
		for t := 0; t < tuples; t++ {
			if rng.Intn(2) == 0 && len(ls) > 1 {
				at := rng.Intn(len(ls))
				op.deletes = append(op.deletes, ls[at])
				op.delIdx = append(op.delIdx, at)
				ls[at] = ls[len(ls)-1]
				ls = ls[:len(ls)-1]
				continue
			}
			row := make([]int, len(spec.Factors[op.edge].Attrs))
			for k := range row {
				row[k] = rng.Intn(spec.Dom)
			}
			val := 1.0
			switch valueKindOf(spec.Semiring) {
			case valuesSmall:
				val = float64(1 + rng.Intn(3))
			case valuesFloat:
				val = 0.25 + rng.Float64()
			}
			op.inserts = append(op.inserts, tupleVal{Row: row, Val: val})
		}
		live[op.view][op.edge] = append(ls, op.inserts...)
		plain := valueKindOf(spec.Semiring) == valuesOne
		op.fInserts, op.fDeletes = toFacade(op.inserts, plain), toFacade(op.deletes, plain)
	}
}

func (w *viewChurn) setUp(ctx context.Context) error {
	w.generate()
	w.engine = faqs.NewEngine(faqs.WithWorkers(engineWorkers))
	for _, vs := range w.views {
		q, err := vs.spec.facade()
		if err != nil {
			return fmt.Errorf("view %s: %w", vs.name, err)
		}
		if vs.mat, err = w.engine.Materialize(ctx, q); err != nil {
			return fmt.Errorf("materializing view %s: %w", vs.name, err)
		}
		if vs.mat.Strategy() != vs.strategy {
			return fmt.Errorf("view %s maintained by strategy %q", vs.name, vs.mat.Strategy())
		}
	}
	for i := 0; i < w.cfg.sz.viewWarm; i++ {
		if err := w.exec(ctx, &w.ops[i]); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	w.shadow, w.shadowAt, w.nextCheck = nil, 0, 0
	runtime.GC()
	return nil
}

func (w *viewChurn) tearDown() {
	for _, vs := range w.views {
		if vs.mat != nil {
			vs.mat.Close()
			vs.mat = nil
		}
	}
	if w.engine != nil {
		w.engine.Close()
	}
}

// prepareReferences has nothing to pre-compute: the state an answer must
// match does not exist until the updates before it ran. Checkpoints
// solve from scratch instead.
func (w *viewChurn) prepareReferences() error { return nil }

func (w *viewChurn) exec(ctx context.Context, op *viewOp) error {
	mat := w.views[op.view].mat
	if op.read {
		_, err := mat.Answer()
		return err
	}
	return mat.Update(ctx, op.edge, op.fInserts, op.fDeletes)
}

func (w *viewChurn) do(ctx context.Context, _, i int) (time.Duration, error) {
	op := &w.ops[w.cfg.sz.viewWarm+i]
	t0 := time.Now()
	err := w.exec(ctx, op)
	return time.Since(t0), err
}

// modelAt advances the shadow model to the state after the first upTo
// operations.
func (w *viewChurn) modelAt(upTo int) [][]liveSet {
	if w.shadow == nil || upTo < w.shadowAt {
		w.shadow = make([][]liveSet, len(w.views))
		for v, vs := range w.views {
			w.shadow[v] = initialLive(vs.spec)
		}
		w.shadowAt = 0
	}
	for ; w.shadowAt < upTo; w.shadowAt++ {
		if op := &w.ops[w.shadowAt]; !op.read {
			op.apply(w.shadow[op.view])
		}
	}
	return w.shadow
}

// scratchSpec is the query a from-scratch solve of view v runs on the
// model's current contributions.
func (w *viewChurn) scratchSpec(v int, live []liveSet) *querySpec {
	base := w.views[v].spec
	spec := &querySpec{Semiring: base.Semiring, Free: base.Free, Dom: base.Dom}
	plain := valueKindOf(base.Semiring) == valuesOne
	for e, ls := range live {
		f := factorSpec{Attrs: base.Factors[e].Attrs, Rows: make([]int, 0, len(ls)*len(base.Factors[e].Attrs))}
		for _, tv := range ls {
			f.Rows = append(f.Rows, tv.Row...)
			if !plain {
				f.Values = append(f.Values, tv.Val)
			}
		}
		spec.Factors = append(spec.Factors, f)
	}
	return spec
}

// verify compares view v's maintained answer with a from-scratch solve
// of the model after upTo operations.
func (w *viewChurn) verify(v, upTo int) (bool, error) {
	iq, err := newInternal(w.scratchSpec(v, w.modelAt(upTo)[v]))
	if err != nil {
		return false, err
	}
	ref, err := iq.reference(w.cfg.sz.brute)
	if err != nil {
		return false, err
	}
	res, err := w.views[v].mat.Answer()
	if err != nil {
		return false, err
	}
	return ref.matches(answerOf(res)), nil
}

// checkpoint runs outside the timer after done timed operations and
// verifies one view, in rotation; checkFinal verifies all three.
func (w *viewChurn) checkpoint(done int) (checked, wrong int, err error) {
	v := w.nextCheck % len(w.views)
	w.nextCheck++
	ok, err := w.verify(v, w.cfg.sz.viewWarm+done)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		wrong = 1
	}
	return 1, wrong, nil
}

// checkAll verifies every view against the model after upTo operations.
func (w *viewChurn) checkAll(upTo int) (checked, wrong int, err error) {
	for v := range w.views {
		ok, err := w.verify(v, upTo)
		if err != nil {
			return checked, wrong, err
		}
		checked++
		if !ok {
			wrong++
		}
	}
	return checked, wrong, nil
}

func (w *viewChurn) checkFinal(done int) (checked, wrong int, err error) {
	return w.checkAll(w.cfg.sz.viewWarm + done)
}

// traced applies every operation twice: to the engine's view through
// the public Materialized handle (the whole op) and to a bench-owned
// delta.Materialized twin of the same view (the delta layer alone).
func (w *viewChurn) traced(ctx context.Context, rec *recorder) (map[string]float64, int, int, error) {
	sz := w.cfg.sz
	ops := min(sz.tracedOps, 300, (len(w.ops)-sz.viewWarm)/2)
	pool := iexec.New(engineWorkers)
	out := &tracedOutcome{}

	internals := make([]internalQuery, len(w.views))
	twins := make([]internalView, len(w.views))
	defer func() {
		for _, tw := range twins {
			if tw != nil {
				tw.close()
			}
		}
	}()
	var materializeNS int64
	for v, vs := range w.views {
		iq, err := newInternal(vs.spec)
		if err != nil {
			return nil, 0, 0, err
		}
		internals[v] = iq
		t0 := time.Now()
		if twins[v], err = iq.materialize(ctx, pool); err != nil {
			return nil, 0, 0, err
		}
		materializeNS += time.Since(t0).Nanoseconds()
	}
	twinExec := func(op *viewOp) error {
		if op.read {
			_, err := twins[op.view].answer()
			return err
		}
		return twins[op.view].update(ctx, op.edge, op.inserts, op.deletes)
	}
	for i := 0; i < sz.viewWarm; i++ {
		if err := twinExec(&w.ops[i]); err != nil {
			return nil, 0, 0, fmt.Errorf("twin warm-up op %d: %w", i, err)
		}
	}
	runtime.GC()
	rss0, err := procStatusKB(0, "VmRSS")
	if err != nil {
		return nil, 0, 0, err
	}

	count := func(err error) {
		out.attempted++
		if err != nil {
			out.failed++
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	for k := 0; k < ops; k++ {
		count(w.exec(ctx, &w.ops[sz.viewWarm+k]))
	}
	out.untraced = time.Since(t0)
	runtime.ReadMemStats(&ms)
	out.allocBytes = ms.TotalAlloc - alloc0
	for k := 0; k < ops; k++ {
		if err := twinExec(&w.ops[sz.viewWarm+k]); err != nil {
			return nil, 0, 0, err
		}
	}

	// One from-scratch pass per view, for delta.resolve_ratio.
	resolveNS := make([]int64, len(w.views))
	for v, iq := range internals {
		g, err := iq.planGHD()
		if err != nil {
			return nil, 0, 0, err
		}
		if resolveNS[v], _, err = iq.solveOn(g, engineWorkers); err != nil {
			return nil, 0, 0, err
		}
	}

	var resolveSum int64
	t0 = time.Now()
	for k := 0; k < ops; k++ {
		op := &w.ops[sz.viewWarm+ops+k]
		id := rec.begin("op", k, -1)
		err := w.exec(ctx, op)
		rec.end(id)
		count(err)

		name := "delta.answer"
		if !op.read {
			name = "delta.update_" + w.views[op.view].name
			resolveSum += resolveNS[op.view]
		}
		rp := rec.begin("replay", k, -1)
		id = rec.begin(name, k, rp)
		err = twinExec(op)
		rec.end(id)
		rec.end(rp)
		count(err)
	}
	out.traced = time.Since(t0)
	out.sum = summarize(rec.snapshot())

	// Correctness: every engine view and every twin against a
	// from-scratch solve of the model.
	upTo := sz.viewWarm + 2*ops
	checked, wrong, err := w.checkAll(upTo)
	if err != nil {
		return nil, 0, 0, err
	}
	out.attempted += checked
	out.failed += wrong
	var updates, recomputes int64
	for v, tw := range twins {
		res, err := w.views[v].mat.Answer()
		if err != nil {
			return nil, 0, 0, err
		}
		got, err := tw.answer()
		if err != nil {
			return nil, 0, 0, err
		}
		out.attempted++
		ref := reference{ans: answerOf(res), exact: w.views[v].spec.Semiring != "minplus"}
		if !ref.matches(got) {
			out.failed++
		}
		st := tw.stats()
		updates += st.Updates
		recomputes += st.Recomputes
	}
	rss1, err := procStatusKB(0, "VmRSS")
	if err != nil {
		return nil, 0, 0, err
	}

	m := out.common(ops, nil)
	perCall := func(name string) float64 {
		if c := out.sum.count[name]; c > 0 {
			return float64(out.sum.byName[name]) / 1e3 / float64(c)
		}
		return 0
	}
	m["delta.materialize_ms"] = float64(materializeNS) / 1e6
	m["delta.update_ring_us_per_op"] = perCall("delta.update_ring")
	m["delta.update_support_us_per_op"] = perCall("delta.update_support")
	m["delta.update_ledger_us_per_op"] = perCall("delta.update_ledger")
	m["delta.answer_us_per_op"] = perCall("delta.answer")
	m["delta.recompute_ratio"] = float64(recomputes) / float64(max(updates, 1))
	updateNS := out.sum.byName["delta.update_ring"] + out.sum.byName["delta.update_support"] + out.sum.byName["delta.update_ledger"]
	m["delta.resolve_ratio"] = float64(resolveSum) / float64(max(updateNS, 1))
	m["delta.rss_growth_mb"] = (rss1 - rss0) / 1024
	k, err := kernelsOf(internals)
	if err != nil {
		return nil, 0, 0, err
	}
	k.metrics(m)
	return m, out.attempted, out.failed, nil
}
