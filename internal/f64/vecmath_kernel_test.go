package f64

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gateSpecials are the inputs at which tanh1 and sigmoid1 change
// formula, one ULP either side of each, and the IEEE specials.
var gateSpecials = func() []float64 {
	v := []float64{0, 5e-324, 1e-300, math.Inf(1), math.NaN()}
	for _, c := range []float64{0.625, tanhSatCut, expFastCut, -expUnderflow, expOverflow} {
		v = append(v, math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1)))
	}
	for _, x := range v {
		v = append(v, -x)
	}
	return v
}()

// gateVec draws n inputs block by block, so that every kind of
// four-lane block the kernels distinguish turns up: all lanes on the
// tanh polynomial, all on the exp formula, both in one block, three
// ordinary lanes beside one the kernel must hand back, and blocks of
// arbitrary bit patterns and specials.
func gateVec(rng *rand.Rand, n int) []float64 {
	small := func() float64 { return (rng.Float64()*2 - 1) * 0.625 }
	mid := func() float64 { return math.Copysign(0.625+rng.Float64()*19.375, rng.Float64()-0.5) }
	special := func() float64 { return gateSpecials[rng.Intn(len(gateSpecials))] }
	wild := func() float64 {
		if rng.Intn(3) == 0 {
			return special()
		}
		return math.Float64frombits(rng.Uint64())
	}
	x := make([]float64, n)
	for lo := 0; lo < n; lo += 4 {
		blk := x[lo:min(lo+4, n)]
		kind := rng.Intn(6)
		fringe := rng.Intn(4)
		for j := range blk {
			switch {
			case kind == 0:
				blk[j] = small()
			case kind == 1:
				blk[j] = mid()
			case kind == 2:
				blk[j] = rng.NormFloat64() // straddles 0.625
			case kind == 3 && j == fringe:
				blk[j] = wild()
			case kind == 3:
				blk[j] = rng.NormFloat64() * 3
			case kind == 4:
				blk[j] = (rng.Float64()*2 - 1) * 800 // sigmoid's whole fast range and past it
			default:
				blk[j] = wild()
			}
		}
	}
	return x
}

// diffVecmathKernels runs TanhV and SigmoidV over x[off:] through the
// dispatching entry points and, with the kernels switched off, through
// the Go loops, and requires identical bits — separate dst, dst
// aliasing x, and guard elements either side of dst untouched.
func diffVecmathKernels(t *testing.T, x []float64, off int) {
	t.Helper()
	const guard = 3
	sentinel := math.Float64frombits(0xfeedfacecafebeef)
	in := x[off:]
	n := len(in)
	for _, fn := range gateFns {
		want := make([]float64, n)
		func() {
			defer setAVX2(false)()
			fn.f(want, in)
		}()

		buf := make([]float64, guard+off+n+guard)
		for i := range buf {
			buf[i] = sentinel
		}
		got := buf[guard+off : guard+off+n]
		fn.f(got, in)
		sameBits(t, fn.name, got, want)
		for i, v := range buf {
			if inside := i >= guard+off && i < guard+off+n; !inside && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("%s n=%d off=%d: wrote buffer element %d outside dst", fn.name, n, off, i)
			}
		}

		copy(got, in)
		fn.f(got, got)
		sameBits(t, fn.name+" in place", got, want)
	}
}

// TestVecmathKernelsMatchReference is the seeded, tier-1 half of
// FuzzVecmathKernels: every length to 300 (so every n mod 4), each at
// every sub-slice offset mod 4.
func TestVecmathKernelsMatchReference(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: TanhV and SigmoidV only have the Go path")
	}
	rng := rand.New(rand.NewSource(16))
	for n := 0; n <= 300; n++ {
		for off := 0; off < 4; off++ {
			diffVecmathKernels(t, gateVec(rng, off+n), off)
		}
	}
	// Every special in every lane, the other three lanes ordinary.
	for _, s := range gateSpecials {
		for lane := 0; lane < 4; lane++ {
			x := []float64{0.1, -0.3, 1.5, -7, 0.2, 0.4, -0.5, 0.6, 3, -4, 5, -6}
			x[4+lane], x[8+lane] = s, s
			diffVecmathKernels(t, x, 0)
		}
	}
}

func FuzzVecmathKernels(f *testing.F) {
	f.Add(int64(1), uint16(96), uint8(0), []byte{})
	f.Add(int64(2), uint16(33), uint8(1), binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.625)))
	f.Add(int64(3), uint16(7), uint8(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(int64(4), uint16(300), uint8(3), binary.LittleEndian.AppendUint64(nil, math.Float64bits(-708)))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off uint8, raw []byte) {
		if !useAVX2 {
			t.Skip("no AVX2 on this CPU")
		}
		o := int(off) % 4
		x := gateVec(rand.New(rand.NewSource(seed)), o+int(n)%301)
		// The fuzzer's own bytes overwrite the leading elements, so it can
		// steer exact bit patterns into the lanes.
		for i := 0; i < len(x) && 8*i+8 <= len(raw); i++ {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		diffVecmathKernels(t, x, o)
	})
}

// TestVecmathShortDstPanics: a dst one element short of x must panic on
// both paths and leave dst as it was — the kernels take raw pointers,
// so the wrappers' dst[n-1] check is what keeps them in bounds.
func TestVecmathShortDstPanics(t *testing.T) { bothPaths(t, testVecmathShortDstPanics) }

func testVecmathShortDstPanics(t *testing.T) {
	for _, fn := range vecFns {
		for _, n := range []int{1, 4, 9, 64} {
			x := make([]float64, n)
			for i := range x {
				x[i] = 1
			}
			dst := make([]float64, n-1) // cap == len: nothing to spill into
			mustPanic(t, fmt.Sprintf("%s: len(dst)=%d, len(x)=%d", fn.name, n-1, n), func() { fn.f(dst, x) })
			for i, v := range dst {
				if v != 0 {
					t.Errorf("%s: wrote dst[%d] before panicking", fn.name, i)
				}
			}
			fn.f(make([]float64, n), x) // the full-size call does not panic
		}
	}
}
