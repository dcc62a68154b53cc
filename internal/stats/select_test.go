package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sortedPercentile is the oracle SelectPercentile must reproduce bit
// for bit: the value PercentileSorted reads off the SortFloats order.
func sortedPercentile(x []float64, p float64) (float64, error) {
	s := append([]float64(nil), x...)
	SortFloats(s)
	return PercentileSorted(s, p)
}

// checkSelect runs SelectPercentile on a copy of x and fails unless the
// result matches the sorted oracle bit for bit and the copy is still a
// permutation of x.
func checkSelect(t *testing.T, x []float64, p float64) {
	t.Helper()
	want, werr := sortedPercentile(x, p)
	y := append([]float64(nil), x...)
	got, err := SelectPercentile(y, p)
	if (err != nil) != (werr != nil) {
		t.Fatalf("n=%d p=%v: err %v, want %v", len(x), p, err, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d p=%v: SelectPercentile = %v, want %v", len(x), p, got, want)
	}
	a := append([]float64(nil), x...)
	SortFloats(a)
	SortFloats(y)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(y[i]) {
			t.Fatalf("n=%d p=%v: result is not a permutation of the input at rank %d: %v vs %v",
				len(x), p, i, y[i], a[i])
		}
	}
}

// TestSelectPercentile covers sizes on both sides of the insertion-sort
// cut-off and the radix threshold, dense duplicates, negatives and
// zeros, at a grid of p that includes both ends and values whose rank
// falls exactly on an element.
func TestSelectPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, selectSmall - 1, selectSmall, selectSmall + 1, 100, radixSortMin + 3, 5000} {
		for kind := 0; kind < 4; kind++ {
			x := make([]float64, n)
			for i := range x {
				switch kind {
				case 0:
					x[i] = rng.ExpFloat64()
				case 1:
					x[i] = float64(rng.Intn(5)) // dense duplicates
				case 2:
					x[i] = rng.NormFloat64()
				default:
					x[i] = float64(rng.Intn(3) - 1)
				}
			}
			for _, p := range ps {
				checkSelect(t, x, p)
			}
			checkSelect(t, x, float64(rng.Intn(n))/float64(max(n-1, 1)))
		}
	}
}

// TestSelectPercentileSignedZeros pins the documented ±0 behaviour:
// the result equals the sorted oracle in value, whatever its sign.
func TestSelectPercentileSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 40, radixSortMin * 2} {
		x := make([]float64, n)
		for i := range x {
			x[i] = []float64{math.Copysign(0, -1), 0, -1, 1}[rng.Intn(4)]
		}
		for _, p := range []float64{0, 0.3, 0.5, 0.7, 1} {
			want, _ := sortedPercentile(x, p)
			got, _ := SelectPercentile(append([]float64(nil), x...), p)
			if got != want {
				t.Fatalf("n=%d p=%v: SelectPercentile = %v, want %v", n, p, got, want)
			}
		}
	}
}

// TestSelectPercentileShapes runs the inputs that stress partitioning:
// already sorted, reversed, all equal, and organ-pipe, which drives
// median-of-three past the depth bound into the SortFloats fallback.
func TestSelectPercentileShapes(t *testing.T) {
	for _, n := range []int{64, 1000, 4096} {
		for shape := 0; shape < 4; shape++ {
			x := shapedSlice(shape, n)
			for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
				checkSelect(t, x, p)
			}
		}
	}
}

// TestSelectPercentileErrors mirrors PercentileSorted's argument errors.
func TestSelectPercentileErrors(t *testing.T) {
	if _, err := SelectPercentile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("empty: err = %v, want ErrEmpty", err)
	}
	for _, p := range []float64{-0.1, 1.1} {
		if _, err := SelectPercentile([]float64{1, 2}, p); err != errPercentileRange {
			t.Fatalf("p=%v: err = %v, want errPercentileRange", p, err)
		}
	}
}

// shapedSlice builds one of the partitioning stress shapes: 0 sorted,
// 1 reversed, 2 organ-pipe, 3 all equal.
func shapedSlice(shape, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch shape {
		case 0:
			x[i] = float64(i + 1)
		case 1:
			x[i] = float64(n - i)
		case 2:
			x[i] = float64(min(i, n-i) + 1)
		default:
			x[i] = 2.5
		}
	}
	return x
}

// decodeSample turns fuzz bytes into a slice of finite floats with no
// −0 (see SelectPercentile on signed zeros). The first byte picks the
// encoding: one value per byte from a small grid (dense duplicates,
// negatives, zeros), raw float64 bits eight bytes at a time (non-finite
// values skipped), or a stress shape of length up to 8192 named by the
// next three bytes.
func decodeSample(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0]%3, data[1:]
	var x []float64
	switch mode {
	case 0:
		for _, b := range data {
			x = append(x, float64(int8(b))/4)
		}
	case 1:
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if v == 0 {
				v = 0 // canonicalise −0
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, v)
			}
		}
	default:
		if len(data) < 3 {
			return nil
		}
		n := int(binary.LittleEndian.Uint16(data))%8192 + 1
		x = shapedSlice(int(data[2]%4), n)
	}
	return x
}

// FuzzSelectPercentile checks selection against the sorted oracle on
// arbitrary samples: the result must match PercentileSorted after
// SortFloats bit for bit, and the slice must stay a permutation of its
// input.
func FuzzSelectPercentile(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint16(32768))
	f.Add([]byte{0, 0x80, 0, 0x80, 0}, uint16(65535))
	f.Add([]byte{2, 0x00, 0x10, 2}, uint16(58981)) // organ-pipe, 4097
	f.Fuzz(func(t *testing.T, data []byte, pq uint16) {
		x := decodeSample(data)
		if len(x) == 0 {
			return
		}
		checkSelect(t, x, float64(pq)/math.MaxUint16)
	})
}

// BenchmarkSelectPercentile compares selection with the sort-then-read
// path it replaces, at a per-node interval sample, a fleet interval
// sample and an end-of-run sample. Both sides copy the input first.
func BenchmarkSelectPercentile(b *testing.B) {
	for _, n := range []int{16, 4096, 350_000} {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.ExpFloat64()
		}
		x := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/select", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				if _, err := SelectPercentile(x, 0.99); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				SortFloats(x)
				if _, err := PercentileSorted(x, 0.99); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
