package nn

import (
	"context"
	"math"
	"math/rand"
	"time"

	"extrapdnn/internal/faultinject"
	"extrapdnn/internal/mat"
	"extrapdnn/internal/obs"
)

// The float32 training engine. TrainOptions.Precision == Float32 routes
// TrainCtx here: the network's float64 master weights are mirrored into a
// float32 working copy, the whole epoch/batch loop — forward, backward,
// optimizer, dropout, validation, divergence detection — runs in float32 on
// the mat float32 twins, and the result is written back to the float64
// master at the end (including cancelled and diverged runs, mirroring the
// in-place mutation semantics of the float64 path). The loop structure and
// rng consumption order mirror train.go exactly, so the two precisions see
// the same shuffles and dropout masks; only the arithmetic width differs.
// The float64 path is untouched — see DESIGN.md §11 for the precision policy.

// layer32 is the float32 working copy of one dense layer.
type layer32 struct {
	w   *mat.Matrix32
	b   []float32
	act Activation
}

// network32 is the float32 working copy of a network's parameters.
type network32 struct {
	layers []layer32
}

// newNetwork32 mirrors the float64 master weights into float32.
func newNetwork32(n *Network) *network32 {
	n32 := &network32{layers: make([]layer32, len(n.Layers))}
	for i, l := range n.Layers {
		w := mat.New32(l.W.Rows(), l.W.Cols())
		mat.Convert32(w, l.W)
		b := make([]float32, len(l.B))
		for j, v := range l.B {
			b[j] = float32(v)
		}
		n32.layers[i] = layer32{w: w, b: b, act: l.Act}
	}
	return n32
}

// writeBack copies the float32 working parameters into the float64 master.
func (n32 *network32) writeBack(n *Network) {
	for i, l := range n32.layers {
		mat.Convert64(n.Layers[i].W, l.w)
		for j, v := range l.b {
			n.Layers[i].B[j] = float64(v)
		}
	}
}

// optState32 holds per-layer float32 optimizer accumulators.
type optState32 struct {
	mW, vW *mat.Matrix32
	mB, vB []float32
	step   int
}

// trainCtx32 is the float32 mirror of the TrainCtx body. The caller has
// already validated inputs and applied option defaults.
func (n *Network) trainCtx32(ctx context.Context, x *mat.Matrix, labels []int, opts TrainOptions) (TrainStats, error) {
	numSamples := x.Rows()

	obsTrainRuns.Inc()
	obsTrainRunsF32.Inc()
	spanCtx, span := obs.StartSpan(ctx, "nn.train")
	if span != nil {
		span.SetString("precision", Float32.String())
	}
	ctx = spanCtx

	n32 := newNetwork32(n)
	// The working copy is authoritative from here on; mirror the float64
	// path's in-place mutation on every exit, completed or aborted.
	defer n32.writeBack(n)

	states := make([]*optState32, len(n32.layers))
	for i, l := range n32.layers {
		states[i] = &optState32{
			mW: mat.New32(l.w.Rows(), l.w.Cols()),
			vW: mat.New32(l.w.Rows(), l.w.Cols()),
			mB: make([]float32, len(l.b)),
			vB: make([]float32, len(l.b)),
		}
	}

	trainCount := numSamples
	if opts.ValidationFrac > 0 && opts.ValidationFrac < 1 {
		held := int(float64(numSamples) * opts.ValidationFrac)
		if held > 0 && numSamples-held > 0 {
			trainCount = numSamples - held
		}
	}

	order := make([]int, trainCount)
	for i := range order {
		order[i] = i
	}

	effBatch := opts.BatchSize
	if effBatch > trainCount {
		effBatch = trainCount
	}
	dropout := opts.Dropout > 0 && opts.Dropout < 1
	ws := newTrainWorkspace32(n32, x, effBatch, trainCount%effBatch, trainCount, numSamples-trainCount, dropout)

	stats := TrainStats{}
	if span != nil {
		defer func() {
			span.SetInt("epochs", int64(len(stats.EpochLoss)))
			span.SetFloat("final_loss", stats.FinalLoss())
			span.SetBool("diverged", stats.Diverged)
			span.End()
		}()
	}
	bestVal := math.Inf(1)
	badEpochs := 0
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var epochStart time.Time
		if obs.MetricsEnabled() {
			epochStart = time.Now()
		}
		rng.Shuffle(trainCount, func(a, b int) { order[a], order[b] = order[b], order[a] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < trainCount; start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > trainCount {
				end = trainCount
			}
			batch := order[start:end]
			loss := n32.trainBatch32(x, labels, batch, states, opts, rng, ws)
			epochLoss += loss * float64(len(batch))
			batches++
		}
		meanLoss := epochLoss / float64(trainCount)
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteTrainEpochLoss, &meanLoss)
		}
		stats.EpochLoss = append(stats.EpochLoss, meanLoss)
		stats.Batches += batches
		if obs.MetricsEnabled() {
			obsTrainEpochs.Inc()
			obsTrainBatches.Add(uint64(batches))
			obsEpochSeconds.Observe(time.Since(epochStart).Seconds())
			obsLastEpochLoss.Set(meanLoss)
			obsLossRing.Push(meanLoss)
		}

		if !isFinite(meanLoss) || !n32.weightsHealthy32() {
			stats.Diverged = true
			stats.DivergedEpoch = epoch + 1
			obsTrainDivergence.Inc()
			return stats, ctx.Err()
		}

		if opts.LRDecay > 0 && opts.LRDecay != 1 {
			opts.LearningRate *= opts.LRDecay
		}
		if trainCount < numSamples {
			val := n32.meanLoss32(ws.valIn, labels, trainCount, ws.valBuf)
			stats.ValLoss = append(stats.ValLoss, val)
			if val < bestVal-1e-9 {
				bestVal = val
				badEpochs = 0
			} else if opts.Patience > 0 {
				badEpochs++
				if badEpochs >= opts.Patience {
					stats.Stopped = true
					break
				}
			}
		}
	}
	return stats, ctx.Err()
}

// weightsHealthy32 is the float32 divergence detector. WeightExplosionLimit
// (1e8) sits far below the float32 range, so the same threshold applies.
func (n32 *network32) weightsHealthy32() bool {
	limit := float32(WeightExplosionLimit)
	for _, l := range n32.layers {
		for _, w := range l.w.Data() {
			if w != w || w > limit || w < -limit {
				return false
			}
		}
		for _, b := range l.b {
			if b != b || b > limit || b < -limit {
				return false
			}
		}
	}
	return true
}

// batchBuffers32 is the float32 twin of batchBuffers.
type batchBuffers32 struct {
	rows   int
	acts   []*mat.Matrix32
	deltas []*mat.Matrix32
	masks  []*mat.Matrix32
}

// trainWorkspace32 is the float32 twin of trainWorkspace. The validation tail
// cannot be a zero-copy view of the float64 input, so it is converted once
// into an owned float32 matrix at workspace construction.
type trainWorkspace32 struct {
	full    *batchBuffers32
	partial *batchBuffers32

	dW []*mat.Matrix32
	dB [][]float32

	valIn  *mat.Matrix32
	valBuf *inferBuffers32
}

func view32(rows, cols int, backing []float32) *mat.Matrix32 {
	return mat.NewFromData32(rows, cols, backing[:rows*cols])
}

func newBatchBuffers32(n32 *network32, inSize, rows int, actBack, deltaBack, maskBack [][]float32, dropout bool) *batchBuffers32 {
	bb := &batchBuffers32{rows: rows}
	bb.acts = make([]*mat.Matrix32, len(n32.layers)+1)
	bb.acts[0] = view32(rows, inSize, actBack[0])
	for i, l := range n32.layers {
		bb.acts[i+1] = view32(rows, l.w.Cols(), actBack[i+1])
	}
	bb.deltas = make([]*mat.Matrix32, len(n32.layers))
	for i, l := range n32.layers {
		bb.deltas[i] = view32(rows, l.w.Cols(), deltaBack[i])
	}
	if dropout {
		bb.masks = make([]*mat.Matrix32, len(n32.layers)+1)
		for i := 1; i < len(bb.acts)-1; i++ {
			bb.masks[i] = view32(rows, n32.layers[i-1].w.Cols(), maskBack[i])
		}
	}
	return bb
}

func newTrainWorkspace32(n32 *network32, x *mat.Matrix, batch, partialRows, valFrom, valRows int, dropout bool) *trainWorkspace32 {
	inSize := n32.layers[0].w.Rows()
	widths := make([]int, len(n32.layers)+1)
	widths[0] = inSize
	for i, l := range n32.layers {
		widths[i+1] = l.w.Cols()
	}
	actBack := make([][]float32, len(widths))
	for i, w := range widths {
		actBack[i] = make([]float32, batch*w)
	}
	deltaBack := make([][]float32, len(n32.layers))
	for i, l := range n32.layers {
		deltaBack[i] = make([]float32, batch*l.w.Cols())
	}
	var maskBack [][]float32
	if dropout {
		maskBack = make([][]float32, len(widths))
		for i := 1; i < len(widths)-1; i++ {
			maskBack[i] = make([]float32, batch*widths[i])
		}
	}

	ws := &trainWorkspace32{
		full: newBatchBuffers32(n32, inSize, batch, actBack, deltaBack, maskBack, dropout),
	}
	if partialRows > 0 {
		ws.partial = newBatchBuffers32(n32, inSize, partialRows, actBack, deltaBack, maskBack, dropout)
	}
	ws.dW = make([]*mat.Matrix32, len(n32.layers))
	ws.dB = make([][]float32, len(n32.layers))
	for i, l := range n32.layers {
		ws.dW[i] = mat.New32(l.w.Rows(), l.w.Cols())
		ws.dB[i] = make([]float32, len(l.b))
	}
	if valRows > 0 {
		cols := x.Cols()
		ws.valIn = mat.New32(valRows, cols)
		src := x.Data()[valFrom*cols : (valFrom+valRows)*cols]
		dst := ws.valIn.Data()
		for i, v := range src {
			dst[i] = float32(v)
		}
		ws.valBuf = n32.newInferBuffers32(valRows)
	}
	return ws
}

func (ws *trainWorkspace32) buffersFor(rows int) *batchBuffers32 {
	if rows == ws.full.rows {
		return ws.full
	}
	return ws.partial
}

// trainBatch32 mirrors trainBatch in float32. The batch rows are downcast
// from the float64 sample matrix as they are gathered; everything after that
// stays float32 until the loss, which is accumulated in float64 for
// reporting-precision parity with the float64 path.
func (n32 *network32) trainBatch32(x *mat.Matrix, labels []int, batch []int, states []*optState32, opts TrainOptions, dropRng *rand.Rand, ws *trainWorkspace32) float64 {
	b := len(batch)
	bb := ws.buffersFor(b)
	in := bb.acts[0]
	for r, idx := range batch {
		src := x.Row(idx)
		dst := in.Row(r)
		for c, v := range src {
			dst[c] = float32(v)
		}
	}

	numLayers := len(n32.layers)
	keepScale := float32(0)
	if bb.masks != nil {
		keepScale = float32(1 / (1 - opts.Dropout))
	}
	for i, l := range n32.layers {
		z := bb.acts[i+1]
		mat.MulTo32(z, bb.acts[i], l.w)
		addBias32(z, l.b)
		applyActivation32(z, l.act)
		if bb.masks != nil && i+1 < numLayers {
			md, ad := bb.masks[i+1].Data(), z.Data()
			for j := range md {
				md[j] = 0
				if dropRng.Float64() >= opts.Dropout {
					md[j] = keepScale
				}
				ad[j] *= md[j]
			}
		}
	}
	probs := bb.acts[numLayers]

	loss := 0.0
	delta := bb.deltas[numLayers-1]
	copy(delta.Data(), probs.Data())
	for r, idx := range batch {
		lbl := labels[idx]
		p := float64(probs.At(r, lbl))
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
		delta.Set(r, lbl, delta.At(r, lbl)-1)
	}
	loss /= float64(b)
	delta.Scale(float32(1 / float64(b)))

	for i := numLayers - 1; i >= 0; i-- {
		l := n32.layers[i]
		aPrev := bb.acts[i]

		dW := ws.dW[i]
		mat.MulATTo32(dW, aPrev, delta)
		dB := ws.dB[i]
		for c := range dB {
			dB[c] = 0
		}
		for r := 0; r < delta.Rows(); r++ {
			row := delta.Row(r)
			for c, v := range row {
				dB[c] += v
			}
		}

		if i > 0 {
			prev := bb.deltas[i-1]
			mat.MulBTTo32(prev, delta, l.w)
			applyActivationGrad32(prev, bb.acts[i], n32.layers[i-1].act)
			if bb.masks != nil && bb.masks[i] != nil {
				pd, md := prev.Data(), bb.masks[i].Data()
				for j := range pd {
					pd[j] *= md[j]
				}
			}
			delta = prev
		}

		applyUpdate32(l, states[i], dW, dB, opts)
	}
	return loss
}

// applyActivation32 applies the layer activation in place. Tanh uses the
// native float32 approximation (mat.Tanh32s, vectorized on SIMD hosts);
// softmax keeps math.Exp because the output layer is narrow and its
// probabilities feed top-k ranking.
func applyActivation32(z *mat.Matrix32, act Activation) {
	switch act {
	case Linear:
	case Tanh:
		mat.Tanh32s(z.Data())
	case ReLU:
		d := z.Data()
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			}
		}
	case Softmax:
		for i := 0; i < z.Rows(); i++ {
			softmaxRow32(z.Row(i))
		}
	default:
		panic("nn: unknown activation")
	}
}

// softmaxRow32 computes a numerically stable softmax in place.
func softmaxRow32(row []float32) {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	sum := float32(0)
	for i, v := range row {
		e := float32(math.Exp(float64(v - max)))
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}

// applyActivationGrad32 multiplies delta in place by the activation
// derivative evaluated from the post-activation values a.
func applyActivationGrad32(delta, a *mat.Matrix32, act Activation) {
	switch act {
	case Linear:
	case Tanh:
		d, av := delta.Data(), a.Data()
		for i := range d {
			d[i] *= 1 - av[i]*av[i]
		}
	case ReLU:
		d, av := delta.Data(), a.Data()
		for i := range d {
			if av[i] <= 0 {
				d[i] = 0
			}
		}
	default:
		panic("nn: activation not supported in hidden layers")
	}
}

// addBias32 adds the bias vector to every row of z.
func addBias32(z *mat.Matrix32, bias []float32) {
	for r := 0; r < z.Rows(); r++ {
		row := z.Row(r)
		for c := range row {
			row[c] += bias[c]
		}
	}
}

// applyUpdate32 performs one optimizer step on a float32 layer. The moment
// decays and bias corrections are computed in float64 (they involve
// math.Pow of step counters) and applied in float32. AdaMax, the default,
// runs on mat.AdaMaxStep32 (vectorized, split across cores for large
// layers, bit-identical to its scalar loop).
func applyUpdate32(l layer32, st *optState32, dW *mat.Matrix32, dB []float32, opts TrainOptions) {
	st.step++
	t := float64(st.step)
	lr := float32(opts.LearningRate)
	beta1 := float32(opts.Beta1)
	beta2 := float32(opts.Beta2)
	if opts.WeightDecay > 0 {
		l.w.Scale(1 - lr*float32(opts.WeightDecay))
	}
	switch opts.Optimizer {
	case SGD:
		l.w.AddScaled(-lr, dW)
		for i := range l.b {
			l.b[i] -= lr * dB[i]
		}
	case Adam:
		corr1 := float32(1 - math.Pow(opts.Beta1, t))
		corr2 := float32(1 - math.Pow(opts.Beta2, t))
		w, m, v, g := l.w.Data(), st.mW.Data(), st.vW.Data(), dW.Data()
		for i := range w {
			m[i] = beta1*m[i] + (1-beta1)*g[i]
			v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
			w[i] -= lr * (m[i] / corr1) / (sqrt32(v[i]/corr2) + 1e-8)
		}
		for i := range l.b {
			st.mB[i] = beta1*st.mB[i] + (1-beta1)*dB[i]
			st.vB[i] = beta2*st.vB[i] + (1-beta2)*dB[i]*dB[i]
			l.b[i] -= lr * (st.mB[i] / corr1) / (sqrt32(st.vB[i]/corr2) + 1e-8)
		}
	default: // AdaMax
		step := lr / float32(1-math.Pow(opts.Beta1, t))
		mat.AdaMaxStep32(l.w.Data(), st.mW.Data(), st.vW.Data(), dW.Data(), beta1, beta2, step)
		mat.AdaMaxStep32(l.b, st.mB, st.vB, dB, beta1, beta2, step)
	}
}

func sqrt32(v float32) float32 { return float32(math.Sqrt(float64(v))) }

// inferBuffers32 is the float32 twin of inferBuffers: two ping-pong
// activation buffers with prebuilt per-layer views for a fixed row count.
type inferBuffers32 struct {
	views []*mat.Matrix32
}

func (n32 *network32) newInferBuffers32(rows int) *inferBuffers32 {
	var even, odd int
	for i, l := range n32.layers {
		w := rows * l.w.Cols()
		if i%2 == 0 && w > even {
			even = w
		}
		if i%2 == 1 && w > odd {
			odd = w
		}
	}
	ping, pong := make([]float32, even), make([]float32, odd)
	buf := &inferBuffers32{views: make([]*mat.Matrix32, len(n32.layers))}
	for i, l := range n32.layers {
		backing := ping
		if i%2 == 1 {
			backing = pong
		}
		buf.views[i] = view32(rows, l.w.Cols(), backing)
	}
	return buf
}

// forwardOutput32 runs x through the float32 network on reused ping-pong
// buffers and returns the output activations (aliasing buf).
func (n32 *network32) forwardOutput32(x *mat.Matrix32, buf *inferBuffers32) *mat.Matrix32 {
	cur := x
	for i, l := range n32.layers {
		z := buf.views[i]
		mat.MulTo32(z, cur, l.w)
		addBias32(z, l.b)
		applyActivation32(z, l.act)
		cur = z
	}
	return cur
}

// meanLoss32 computes the mean cross-entropy on the held-out float32 tail.
func (n32 *network32) meanLoss32(in *mat.Matrix32, labels []int, from int, buf *inferBuffers32) float64 {
	probs := n32.forwardOutput32(in, buf)
	count := in.Rows()
	loss := 0.0
	for r := 0; r < count; r++ {
		p := float64(probs.At(r, labels[from+r]))
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
	}
	return loss / float64(count)
}
