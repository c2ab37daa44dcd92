package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
)

// goldenWeightsDigest is the sha256 of the nn.Save serialization of a small
// network trained at default precision with the seeds below, captured when the
// float32 fast path landed. The float64 training and inference paths are the
// reference semantics of the package: adding Precision, InferSession, and the
// SIMD kernels must leave them byte-for-byte unchanged. If this pin breaks,
// the default-precision numerics changed — that is an API break for every
// golden output downstream, not a tolerance question.
const goldenWeightsDigest = "73a837b5756cb6d1c044d8e74a3094e027574890f2c4013478ec2e73aa9d6e1f"

func TestDefaultPrecisionGoldenWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork([]int{11, 16, 43}, rng)
	x, labels := benchData(rand.New(rand.NewSource(12)), 256)
	net.Train(x, labels, TrainOptions{
		Epochs:    2,
		BatchSize: 32,
		Rng:       rand.New(rand.NewSource(13)),
	})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenWeightsDigest {
		t.Fatalf("default-precision training produced different weights:\n got %s\nwant %s\n"+
			"The float64 path must stay bit-identical; only update this digest for a deliberate semantic change.",
			got, goldenWeightsDigest)
	}
}

// The edge-width pins train a 13-300-250-43 network whose shapes reach every
// edge path of the matmul kernels: batch rows 30, 27 (the last partial batch)
// and 23 (the validation split) leave m%4 ∈ {2, 3}; widths 13, 250 and 43 leave
// n%4 ∈ {1, 2, 3}; the shared dimensions 13, 250, 30, 27 are off the
// four-wide unroll; and the 300×250 layer holds more than 65 536 weights, so
// the AdaMax step splits across cores. edgeWeightsDigest64 pins the float64
// path like goldenWeightsDigest; edgeWeightsDigest32 pins the float32 path
// on the SIMD kernels, whose results depend on the host's dispatch and are
// therefore only compared where mat.SIMD reports them in use.
const (
	edgeWeightsDigest64 = "4485e5985df9b798c213702c0443acac0475094879ccb33d62b31444f2209fc1"
	edgeWeightsDigest32 = "f81d36dc3de6d1c998623c071001823b3f60c5a935b2818acdc064b911c20f54"
)

func edgeWeightsDigest(t *testing.T, p Precision) string {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork([]int{13, 300, 250, 43}, rng)
	x := mat.New(230, 13)
	labels := make([]int, x.Rows())
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for i := range labels {
		labels[i] = rng.Intn(43)
	}
	net.Train(x, labels, TrainOptions{
		Epochs:         2,
		BatchSize:      30,
		ValidationFrac: 0.1,
		Rng:            rand.New(rand.NewSource(22)),
		Precision:      p,
	})
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestEdgeWidthGoldenWeights(t *testing.T) {
	if got := edgeWeightsDigest(t, Float64); got != edgeWeightsDigest64 {
		t.Fatalf("float64 edge-width training produced different weights:\n got %s\nwant %s", got, edgeWeightsDigest64)
	}
	if !mat.SIMD() {
		t.Skip("float32 pin holds for the SIMD kernels; this host runs the scalar ones")
	}
	if got := edgeWeightsDigest(t, Float32); got != edgeWeightsDigest32 {
		t.Fatalf("float32 edge-width training produced different weights:\n got %s\nwant %s", got, edgeWeightsDigest32)
	}
}
