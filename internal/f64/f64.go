// Package f64 provides the small dense float64 math kernels behind
// the hot paths of internal/nn: dot products, scaled vector updates,
// matrix–vector products, the small GEMM shapes used by the
// sequence-level LSTM input transform, and the transcendentals (ExpV,
// TanhV, SigmoidV — see vecmath.go) behind the gate nonlinearities. The
// kernels are Go without unsafe,
// written for throughput on modern cores: 4-way unrolled inner loops
// with independent accumulator lanes (breaking the loop-carried add
// dependency) and slice re-slicing hints that let the compiler hoist
// bounds checks. Five loops have a second implementation, run on amd64
// CPUs that report AVX2. The 4-term row update shared by GemmSW (hence
// Gemm and GemmS), GemmTN and GemvT is a hand-written kernel
// (gemm_amd64.s) holding a 16- or 4-column tile of C in YMM registers
// across the whole shared dimension. GemvTSeq's column sums are a second
// kernel beside it: a 32-, 16-, 8- or 4-column tile of the output held
// in YMM registers down all the rows. WindowSumMax's table sums are a
// third: a 32- or 4-column tile of running window sums and of running
// maxima, both held in YMM registers down all the windows of a
// sequence. The whole four-element blocks of TanhV and SigmoidV are two
// more (vecmath_amd64.s), sharing one exp-rational core, four elements
// per YMM register. Which implementation runs is read from the CPU once
// at package init — there is no option or environment variable — and
// the Go loops remain the only path on every other GOARCH or CPU, under
// the purego build tag (which leaves the assembly out, so that `go test
// -tags purego` runs the callers' goldens on the Go loops), and for
// every GEMM shape narrower than one vector (w < 4 or k < 4; GemvTSeq
// and WindowSumMax: the outputs past the last whole vector). A
// nonlinearity's Go loop is its element function (exp1, tanh1,
// sigmoid1) applied to each input in turn: that is all of ExpV,
// which has no kernel, and for TanhV and SigmoidV everything but the
// whole blocks on AVX2 — the n mod 4 tail and any block holding an input
// outside a kernel's branch-free range (see vecmath.go).
//
// # Determinism
//
// Floating-point addition is not associative, so the summation order
// of every kernel is fixed and documented. Dot uses four unrolled
// accumulator lanes: s0..s3 accumulate elements i≡0..3 (mod 4) of the
// first ⌊n/4⌋·4 elements, the scalar tail accumulates the remainder,
// and the lanes recombine as ((s0+s1)+(s2+s3))+tail. The matrix
// kernels process output rows (or shared-dimension terms) in blocks
// of four: within a block every output element accumulates its terms
// sequentially in increasing index order, and leftover rows/terms
// fall back to Dot or Axpy. The AVX2 row update vectorises across output
// columns only, so an output element never shares a sum with its
// neighbours, and issues for each element exactly the Go loop's
// sequence — t = ((a0·b0 + a1·b1) + a2·b2) + a3·b3, then c = c + t,
// blocks in increasing index order, the leftover terms after them — as
// separate multiplies and adds. It never uses a fused multiply-add,
// which would skip the product's rounding.
//
// GemvTSeq's kernel holds GemvN's order the same way. It vectorises
// across output columns only: each output is one lane of one
// accumulator, summed down the rows in increasing index with its
// neighbours merely running beside it. Accumulators start at +0 and the
// first product is added to that, not stored, so a −0 product yields
// the +0 that Go's `var s float64; s += p` does. Every row is
// multiplied whatever x holds (GemvN has no zero-skip: Inf·0 must make
// its NaN), and multiply and add stay separate instructions. The
// len(dst) mod 4 outputs past the last whole vector are summed in Go in
// Dot's lane order — what GemvN does with its leftover rows — so
// GemvTSeq equals GemvN over the transposed matrix at every shape.
//
// WindowSumMax has no multiply to round: its table holds terms a GEMM
// would have formed (a frozen convolution bank stores each 4-term block
// sum of its scoring GEMM, computed by that GEMM's own expression) and
// it adds them as that GEMM would. Its kernel, too, vectorises across
// columns only. Every window's sum is one lane's chain, started from
// the bias — not from zero with the bias added last — and extended one
// table row at a time in increasing (offset, row) order by separate
// adds: exactly `c = bias; c = c + t` per block. The maximum over
// windows is VMAXPD with the sum as first source and the running
// maximum, started at +0, as second: the instruction returns its second
// source unless the first is strictly greater, so a tie keeps the
// earlier window, −0 never replaces +0 and a NaN sum is passed over,
// which is the Go loop's `if s > best { best = s }` bit for bit. A
// caller that builds such a table by accumulating into it must prefill
// it with −0, not +0: (−0) + t is t for every t, while (+0) + (−0) is
// +0.
//
// In every case the order is a pure function of the operand shapes —
// never of slice capacity, alignment, build flags, or which
// implementation ran — so results are bit-identical run-to-run, across
// machines with and without AVX2, and across call sites: direct and
// pooled inference agree exactly because both route through these
// kernels. (Only a NaN's payload bits, which nothing reads, may differ
// between the paths.)
//
// TanhV and SigmoidV have no sums to order: each output is a function
// of its own input alone. Their AVX2 kernels keep that by issuing, in
// every lane, the element function's own operations in its own order —
// k = floor(log2e·y + ½), the two-step ln2 reduction, P and Q by the
// same Horner steps, 2^k built from exponent bits, one divide — as
// separate multiplies, adds and subtracts, never fused. Where the
// element function branches (the logistic's numerator on the sign of
// x, tanh's formula on |x| < 0.625) the kernel evaluates both sides
// and takes each lane from its own; since a lane's value depends on
// nothing but that lane's input, the blend yields the bits the branch
// would. A block the formulas do not cover goes back to the element
// functions whole.
//
// # Contracts
//
// Vector arguments named like y or dst must be at least as long as
// the vector that drives the iteration (x); extra elements are
// untouched. A short operand panics on either implementation: the
// vector path evaluates the Go loop's own last index expressions
// before handing the kernel a pointer. Element-wise kernels (Axpy,
// AddTo) permit dst to alias their inputs elementwise (e.g.
// AddTo(x, x) doubles x). Matrix kernels require dst to be disjoint
// from the matrix and vector operands. Matrices are dense row-major
// with no padding.
package f64

// Dot returns the dot product of x and y[:len(x)].
func Dot(x, y []float64) float64 {
	var s0, s1, s2, s3, tail float64
	n := len(x)
	if n == 0 {
		return 0
	}
	_ = y[n-1] // bounds-check hint; panics (rather than reading stale data) if y is short
	i := 0
	for ; i <= n-4; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		tail += x[i] * y[i]
	}
	return ((s0 + s1) + (s2 + s3)) + tail
}

// Axpy computes y[i] += a*x[i] for i < len(x).
func Axpy(a float64, x, y []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = y[n-1] // bounds-check hint; panics (rather than silently growing) if y is short
	i := 0
	for ; i <= n-4; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// AddTo computes dst[i] += x[i] for i < len(x).
func AddTo(dst, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // bounds-check hint; panics (rather than silently growing) if dst is short
	i := 0
	for ; i <= n-4; i += 4 {
		dst[i] += x[i]
		dst[i+1] += x[i+1]
		dst[i+2] += x[i+2]
		dst[i+3] += x[i+3]
	}
	for ; i < n; i++ {
		dst[i] += x[i]
	}
}

// Transpose writes dst = Aᵀ where A is an m×n row-major matrix and
// dst is n×m. dst must not alias a. Hot paths transpose a weight
// matrix once per pass so the subsequent products run along
// contiguous rows (long axpy-style inner loops) instead of strided
// columns or per-row short dots.
func Transpose(dst, a []float64, m, n int) {
	for i := 0; i < m; i++ {
		ai := a[i*n : i*n+n]
		for j, v := range ai {
			dst[j*m+i] = v
		}
	}
}

// GemvN computes dst = A·x where A is a len(dst)×len(x) row-major
// matrix: dst[r] = A[r,:]·x. Rows are processed in blocks of four
// that share each x load (register blocking); within a block a row's
// sum accumulates sequentially in increasing i, and leftover rows use
// Dot's lane order.
func GemvN(dst, a, x []float64) {
	n := len(x)
	m := len(dst)
	r := 0
	for ; r <= m-4; r += 4 {
		a0 := a[r*n : r*n+n]
		a1 := a[(r+1)*n : (r+1)*n+n]
		a2 := a[(r+2)*n : (r+2)*n+n]
		a3 := a[(r+3)*n : (r+3)*n+n]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += a0[i] * xi
			s1 += a1[i] * xi
			s2 += a2[i] * xi
			s3 += a3[i] * xi
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < m; r++ {
		dst[r] = Dot(a[r*n:r*n+n], x)
	}
}

// GemvNAdd computes dst += A·x where A is a len(dst)×len(x)
// row-major matrix, with the same blocking and per-row summation
// order as GemvN.
func GemvNAdd(dst, a, x []float64) {
	n := len(x)
	m := len(dst)
	r := 0
	for ; r <= m-4; r += 4 {
		a0 := a[r*n : r*n+n]
		a1 := a[(r+1)*n : (r+1)*n+n]
		a2 := a[(r+2)*n : (r+2)*n+n]
		a3 := a[(r+3)*n : (r+3)*n+n]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += a0[i] * xi
			s1 += a1[i] * xi
			s2 += a2[i] * xi
			s3 += a3[i] * xi
		}
		dst[r] += s0
		dst[r+1] += s1
		dst[r+2] += s2
		dst[r+3] += s3
	}
	for ; r < m; r++ {
		dst[r] += Dot(a[r*n:r*n+n], x)
	}
}

// GemvT computes dst = Aᵀ·x where A is a len(x)×len(dst) row-major
// matrix: dst[c] = Σ_r x[r]·A[r,c]. Rows are consumed four at a time
// — dst[c] accumulates x[r]·A[r,c] + … + x[r+3]·A[r+3,c] left to
// right — and leftover rows with x[r] == 0 are skipped: the 1×len(x)
// by len(x)×len(dst) case of GemmSW into a zeroed dst.
func GemvT(dst, a, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	GemmSW(dst, len(dst), x, len(x), a, len(dst), 1, len(dst), len(x))
}

// GemvTSeq computes dst = Aᵀ·x where A is a len(x)×len(dst) row-major
// matrix, in GemvN's order rather than GemvT's: it is bit for bit
// GemvN(dst, Aᵀ, x) without the transposed copy. Each of the first
// len(dst)&^3 outputs is summed strictly sequentially in increasing row
// index from +0, dst[c] = ((0 + A[0,c]·x[0]) + A[1,c]·x[1]) + …, with no
// zero-skip; the len(dst) mod 4 leftover outputs use Dot's lane order
// over their column (lanes by r mod 4), as GemvN's leftover rows do.
// This is the BPTT recurrence dhₜ₋₁ = Whᵀ·dpreₜ read off Wh as stored.
func GemvTSeq(dst, a, x []float64) {
	w, k := len(dst), len(x)
	if k > 0 {
		_ = a[(k-1)*w : (k-1)*w+w] // the Go loop's last row: a short a panics on either path
	}
	w4 := w &^ 3
	if useAVX2 && w4 > 0 && k > 0 {
		colSumsSeq(&dst[0], &a[0], w, &x[0], w4, k)
	} else {
		// The same sums taken row by row, four rows a pass, so a is read
		// contiguously: every dst[c] still receives its products one at
		// a time in increasing r (Go adds left to right).
		head := dst[:w4]
		for c := range head {
			head[c] = 0
		}
		r := 0
		for ; r <= k-4; r += 4 {
			x0, x1, x2, x3 := x[r], x[r+1], x[r+2], x[r+3]
			a0 := a[r*w : r*w+w4][:len(head)] // len(head) == w4, said so the inner loop is check-free
			a1 := a[(r+1)*w : (r+1)*w+w4][:len(head)]
			a2 := a[(r+2)*w : (r+2)*w+w4][:len(head)]
			a3 := a[(r+3)*w : (r+3)*w+w4][:len(head)]
			for c := range head {
				head[c] = head[c] + a0[c]*x0 + a1[c]*x1 + a2[c]*x2 + a3[c]*x3
			}
		}
		for ; r < k; r++ {
			xr, ar := x[r], a[r*w:r*w+w4]
			for c := range head {
				head[c] += ar[c] * xr
			}
		}
	}
	for c := w4; c < w; c++ {
		var s0, s1, s2, s3, tail float64
		r := 0
		for ; r <= k-4; r += 4 {
			s0 += a[r*w+c] * x[r]
			s1 += a[(r+1)*w+c] * x[r+1]
			s2 += a[(r+2)*w+c] * x[r+2]
			s3 += a[(r+3)*w+c] * x[r+3]
		}
		for ; r < k; r++ {
			tail += a[r*w+c] * x[r]
		}
		dst[c] = ((s0 + s1) + (s2 + s3)) + tail
	}
}

// Gemm computes C += A·B for row-major C (m×n), A (m×k), B (k×n).
// Row i of C accumulates A[i,l]·B[l,:] in increasing l, four terms at
// a time; leftover terms with A[i,l] == 0 are skipped.
func Gemm(c, a, b []float64, m, n, k int) {
	GemmS(c, a, k, b, m, n, k)
}

// GemmS computes C += A·B like Gemm, but reads A's rows with an
// explicit stride lda ≥ k: row i is a[i*lda : i*lda+k]. Overlapping
// windows of one packed buffer can thereby act as matrix rows — the
// copy-free im2col lowering the convolution layer uses — and the
// per-element accumulation order is identical to Gemm's, so the two
// are bit-identical on the same logical operands.
func GemmS(c, a []float64, lda int, b []float64, m, n, k int) {
	GemmSW(c, n, a, lda, b, n, m, n, k)
}

// GemmSW computes C += A·B on the leading w columns only: C rows have
// physical stride ldc (row i is c[i*ldc : i*ldc+w]), B rows stride ldb,
// and columns [w, stride) of both are neither read nor written. A is
// read as in GemmS (row i is a[i*lda : i*lda+k]). Because every output
// element depends only on its own row of A and column of B, narrowing
// w drops whole elements but never reorders a surviving element's
// terms: C[:, :w] is bit-identical to the same columns of the
// full-width product. The batched LSTM computes its candidate and
// gate column blocks of one product this way, into separate buffers.
func GemmSW(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int) {
	if !useAVX2 || m <= 0 || w < 4 || k < 4 {
		gemmSWGo(c, ldc, a, lda, b, ldb, m, w, k)
		return
	}
	// The kernel takes raw pointers. Evaluating the slice expressions of
	// gemmSWGo's last row and last blocked term here keeps its panic on a
	// short operand: strides are non-negative or these fail, so every
	// earlier row and term lies inside them.
	k4 := k &^ 3
	_ = c[(m-1)*ldc : (m-1)*ldc+w]
	_ = a[(m-1)*lda : (m-1)*lda+k]
	_ = b[(k4-1)*ldb : (k4-1)*ldb+w]
	gemmVec(c, ldc, a, lda, 1, b, ldb, m, w, k)
}

// gemmSWGo is GemmSW in plain Go: the only path where the CPU has no
// AVX2, the path of every shape narrower than one vector, and the
// reference the vector path must match bit for bit.
func gemmSWGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, w, k int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+w]
		ai := a[i*lda : i*lda+k]
		l := 0
		for ; l <= k-4; l += 4 {
			a0, a1, a2, a3 := ai[l], ai[l+1], ai[l+2], ai[l+3]
			b0 := b[l*ldb : l*ldb+w]
			b1 := b[(l+1)*ldb : (l+1)*ldb+w]
			b2 := b[(l+2)*ldb : (l+2)*ldb+w]
			b3 := b[(l+3)*ldb : (l+3)*ldb+w]
			for j := range ci {
				ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; l < k; l++ {
			if al := ai[l]; al != 0 {
				Axpy(al, b[l*ldb:l*ldb+w], ci)
			}
		}
	}
}

// gemmVec is the vector path under GemmSW, GemmTN and GemvT:
// C[i, :w] += Σ_l A(i,l)·B[l, :w] with A(i,l) = a[i*ars+l*acs], so one
// body serves A read by rows (acs = 1) and transposed (ars = 1). Per C
// row the kernel runs the whole-vector columns of every block of four
// terms; the w mod 4 column tail of those blocks and the k mod 4 term
// tail (zero-skip Axpy) are the Go loops' own statements. Each element
// still sees its blocks in increasing l and then its tail terms, so
// the result is bit-identical to gemmSWGo / gemmTNGo. Callers have
// proven the operands in range, with w ≥ 4 and k ≥ 4.
func gemmVec(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb int, m, w, k int) {
	w4, k4 := w&^3, k&^3
	b00 := &b[:w][0]
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+w]
		ai := a[i*ars : i*ars+(k-1)*acs+1]
		rowUpdate4(&ci[0], &ai[0], acs, b00, ldb, w4, k4/4)
		if w4 < w {
			for l := 0; l < k4; l += 4 {
				a0, a1, a2, a3 := ai[l*acs], ai[(l+1)*acs], ai[(l+2)*acs], ai[(l+3)*acs]
				b0 := b[l*ldb : l*ldb+w]
				b1 := b[(l+1)*ldb : (l+1)*ldb+w]
				b2 := b[(l+2)*ldb : (l+2)*ldb+w]
				b3 := b[(l+3)*ldb : (l+3)*ldb+w]
				for j := w4; j < w; j++ {
					ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
		}
		for l := k4; l < k; l++ {
			if al := ai[l*acs]; al != 0 {
				Axpy(al, b[l*ldb:l*ldb+w], ci)
			}
		}
	}
}

// GemmTN computes C += Aᵀ·B for row-major C (m×n), A (k×m), B (k×n):
// C[i,j] += Σ_l A[l,i]·B[l,j]. Row i of C accumulates its terms in
// increasing l, four at a time; leftover terms with A[l,i] == 0 are
// skipped. This is the outer-product accumulation shape of weight
// gradients (dW += dYᵀ·X summed over a sequence).
func GemmTN(c, a, b []float64, m, n, k int) {
	if !useAVX2 || m <= 0 || n < 4 || k < 4 {
		gemmTNGo(c, a, b, m, n, k)
		return
	}
	// As in GemmSW: gemmTNGo's own last index and slice expressions.
	k4 := k &^ 3
	_ = a[(k-1)*m+m-1]
	_ = c[(m-1)*n : (m-1)*n+n]
	_ = b[(k4-1)*n : (k4-1)*n+n]
	gemmVec(c, n, a, 1, m, b, n, m, n, k)
}

// gemmTNGo is GemmTN in plain Go; see gemmSWGo.
func gemmTNGo(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		l := 0
		for ; l <= k-4; l += 4 {
			a0, a1, a2, a3 := a[l*m+i], a[(l+1)*m+i], a[(l+2)*m+i], a[(l+3)*m+i]
			b0 := b[l*n : l*n+n]
			b1 := b[(l+1)*n : (l+1)*n+n]
			b2 := b[(l+2)*n : (l+2)*n+n]
			b3 := b[(l+3)*n : (l+3)*n+n]
			for j := range ci {
				ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; l < k; l++ {
			if v := a[l*m+i]; v != 0 {
				Axpy(v, b[l*n:l*n+n], ci)
			}
		}
	}
}

// WindowSumMax pools a table of precomputed row sums over the sliding
// windows of a token sequence — a frozen convolution bank's score and
// max-over-time in one pass, with no multiply left in it. table is a
// matrix of k-wide rows, span·rows of them per id: the rows rows of id v
// at window offset j start at row (v·span + j)·rows. For every window
// start p ≤ len(ids) − width and every column c < k,
//
//	s = bias[c]; s += table[((ids[p+j]·span + j)·rows + b)·k + c]
//
// in increasing (j, b) for j < width, b < rows — one add per table row,
// the chain starting from the bias, not from zero — and then
//
//	dst[c] = the first maximum of +0 and the windows' s, by strict >
//
// taken in increasing p, so a tie keeps the earlier window, a −0 or
// negative maximum leaves +0, and a NaN sum neither wins nor poisons a
// later window. width < span is the one truncated window of a sequence
// shorter than the span (len(ids) == width then, in the convolution's
// use); width == 0 pools the bias alone.
//
// WindowSumMax panics unless rows ≥ 1, span ≥ 1, 0 ≤ width ≤ span, width
// ≤ len(ids), dst and bias hold k elements and every id addresses a whole
// span·rows·k block of table (0 ≤ id < len(table)/(span·rows·k)): all of
// it is proven here, on either implementation, before a table row is
// read.
func WindowSumMax(dst, bias, table []float64, ids []int, k, rows, width, span int) {
	if k <= 0 {
		return
	}
	if rows < 1 || span < 1 || width < 0 || width > span || width > len(ids) {
		panic("f64: WindowSumMax: window shape out of range")
	}
	_, _ = dst[k-1], bias[k-1]
	vocab := len(table) / (span * rows * k)
	for _, id := range ids {
		if uint(id) >= uint(vocab) {
			panic("f64: WindowSumMax: id outside the table")
		}
	}
	// The kernel takes the whole-vector columns of a window that reads
	// at least one id (so ids and table are not empty); the Go loop takes
	// what is left of the columns.
	k4 := 0
	if useAVX2 && width > 0 && k >= 4 {
		k4 = k &^ 3
		winSumMax(&dst[0], &bias[0], &table[0], &ids[0], len(ids)-width+1, width, rows, k, k4, span)
	}
	windowSumMaxGo(dst, bias, table, ids, k, rows, width, span, k4)
}

// windowSumMaxGo is WindowSumMax on columns [lo, k) in plain Go: every
// column where the CPU has no AVX2, the k mod 4 columns past the last
// whole vector where it has, and the reference the kernel must match bit
// for bit. It walks the table row by row, as the kernel does, over
// chunks of up to 32 columns whose running sums live on the stack.
func windowSumMaxGo(dst, bias, table []float64, ids []int, k, rows, width, span, lo int) {
	var sums [32]float64
	positions := len(ids) - width + 1
	for ; lo < k; lo += len(sums) {
		n := min(k-lo, len(sums))
		best, s := dst[lo:lo+n], sums[:n]
		for c := range best {
			best[c] = 0
		}
		for p := 0; p < positions; p++ {
			copy(s, bias[lo:lo+n])
			for j := 0; j < width; j++ {
				r := (ids[p+j]*span+j)*rows*k + lo
				for b := 0; b < rows; b++ {
					for c, t := range table[r : r+n][:len(s)] {
						s[c] += t
					}
					r += k
				}
			}
			for c, v := range s {
				if v > best[c] {
					best[c] = v
				}
			}
		}
	}
}
