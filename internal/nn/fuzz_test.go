package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// saveBytes serializes a small network for corpus seeding and corruption.
func saveBytes(t testing.TB, sizes []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewNetwork(sizes, rand.New(rand.NewSource(1))).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsNonFinite pins the boundary validation added for the model
// registry: a serialized blob carrying NaN or ±Inf parameters, or an unknown
// activation code, must be rejected at Load instead of poisoning predictions.
func TestLoadRejectsNonFinite(t *testing.T) {
	base := saveBytes(t, []int{3, 2})
	// Layout: 8 magic + 8 layer count + 24 layer header, then 3*2 weights.
	const firstWeight = 8 + 8 + 24

	for name, bits := range map[string]uint64{
		"nan":    math.Float64bits(math.NaN()),
		"posinf": math.Float64bits(math.Inf(1)),
		"neginf": math.Float64bits(math.Inf(-1)),
	} {
		blob := append([]byte(nil), base...)
		for i := 0; i < 8; i++ {
			blob[firstWeight+i] = byte(bits >> (8 * i))
		}
		if _, err := Load(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s weight accepted", name)
		}
		// Same corruption in the bias region (after the 6 weights).
		blob = append([]byte(nil), base...)
		for i := 0; i < 8; i++ {
			blob[firstWeight+6*8+i] = byte(bits >> (8 * i))
		}
		if _, err := Load(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s bias accepted", name)
		}
	}

	// Unknown activation code in the layer header (offset 16+16 = act field).
	blob := append([]byte(nil), base...)
	blob[8+8+16] = 200
	if _, err := Load(bytes.NewReader(blob)); err == nil {
		t.Error("unknown activation accepted")
	}

	// The untouched blob must still load.
	if _, err := Load(bytes.NewReader(base)); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

// TestLoadOversizedHeaderFailsWithoutAllocating: a blob whose header
// announces a 131072×65536 layer but carries no parameters must fail with an
// error, allocating in proportion to the bytes present rather than to the
// header (the fuzz smoke found such a blob killing the process with a fatal
// out-of-memory error).
func TestLoadOversizedHeaderFailsWithoutAllocating(t *testing.T) {
	blob := append([]byte("expdnn01"), make([]byte, 32)...)
	binary.LittleEndian.PutUint64(blob[8:], 1) // layer count
	binary.LittleEndian.PutUint64(blob[16:], 1<<17)
	binary.LittleEndian.PutUint64(blob[24:], 1<<16)
	binary.LittleEndian.PutUint64(blob[32:], uint64(Tanh))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("blob without parameters accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("rejecting a %d-byte blob allocated %d bytes", len(blob), d)
	}
}

// FuzzLoadNetwork drives Load with arbitrary bytes (run in the check.sh fuzz
// smoke). Load must never panic, and any blob it accepts must satisfy the
// invariants the rest of the system relies on: chained layer dimensions,
// known activations, finite parameters, and a Save round trip that reproduces
// an equivalent network.
func FuzzLoadNetwork(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("expdnn01"))
	valid := saveBytes(f, []int{3, 4, 2})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	corrupt := append([]byte(nil), valid...)
	corrupt[20] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(net.Layers) == 0 {
			t.Fatal("accepted network with no layers")
		}
		prevOut := -1
		for i, l := range net.Layers {
			if prevOut != -1 && l.In() != prevOut {
				t.Fatalf("layer %d dimension chain broken: in %d, previous out %d", i, l.In(), prevOut)
			}
			prevOut = l.Out()
			if l.Act < Tanh || l.Act > ReLU {
				t.Fatalf("layer %d accepted unknown activation %d", i, int(l.Act))
			}
			if firstNonFinite(l.W.Data()) >= 0 || firstNonFinite(l.B) >= 0 {
				t.Fatalf("layer %d accepted non-finite parameters", i)
			}
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("accepted network failed to re-save: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-saved network failed to load: %v", err)
		}
		if again.Fingerprint() != net.Fingerprint() {
			t.Fatal("save/load round trip changed the network fingerprint")
		}
	})
}
