package mat

import "sync"

// The SIMD driver shared by both precisions. On amd64 hosts with AVX2 all
// three products of each precision run on one register-tiled assembly
// micro-kernel — gemm32 (4×16 float32 tiles, FMA) or gemm64 (4×4 float64
// tiles, separate multiply and add in the scalar operation order) — that
// reads A through a row and a k stride, covers the last column stripe by
// overlapping it with its neighbour, and computes each output element
// independently of how rows or columns are split between goroutines. The
// functions below are written once over float and pick the leaf assembly by
// element type.

// float is the element type of the SIMD driver.
type float interface{ float32 | float64 }

// isFloat32 reports whether T is float32; the driver uses it to pick the
// leaf assembly, the stripe width and the scratch list.
func isFloat32[T float]() bool {
	_, ok := any((*T)(nil)).(*float32)
	return ok
}

// lanes is how many elements of T one ymm register holds.
func lanes[T float]() int {
	if isFloat32[T]() {
		return 8
	}
	return 4
}

// stripe is the column width of one micro-kernel stripe and so the narrowest
// output the kernel covers by itself: two eight-lane ymm registers of
// float32, one four-lane register of float64.
func stripe[T float]() int {
	if isFloat32[T]() {
		return 16
	}
	return 4
}

// simdCols reports whether a product with n output columns of T runs on the
// micro-kernel. float32 products narrower than a stripe are padded into one;
// float64 products narrower than a register keep the scalar loop.
func simdCols[T float](n int) bool {
	return useFMA && (isFloat32[T]() || n >= stripe[T]())
}

// btPanel is the column width of the k-major panels mulPanelRange packs
// from b: the B operand of one micro-kernel call, one float32 stripe or four
// float64 stripes.
const btPanel = 16

// packRows is the fewest output rows for which MulTo packs b into panels:
// below it the copy would cost as much as the product.
const packRows = 16

// narrowRows is how many rows gemmRows runs per call when it has to route a
// block narrower than one stripe through a stripe-wide scratch tile.
const narrowRows = 16

// scratchList holds the free packing panels and scratch tiles of one
// element type, so steady-state training and inference stay
// allocation-free. It is a free list rather than a sync.Pool because a pool
// may drop buffers at any time (under the race detector it drops a quarter
// of them on purpose), which would make a steady-state product allocate. It
// grows to the peak number of concurrent users and no further.
type scratchList[T float] struct {
	mu   sync.Mutex
	free []*[]T
}

var (
	scratch32 scratchList[float32]
	scratch64 scratchList[float64]
)

func scratchFor[T float]() *scratchList[T] {
	var s any = &scratch64
	if isFloat32[T]() {
		s = &scratch32
	}
	return s.(*scratchList[T])
}

func getScratch[T float](n int) *[]T {
	s := scratchFor[T]()
	var p *[]T
	s.mu.Lock()
	if k := len(s.free); k > 0 {
		p = s.free[k-1]
		s.free = s.free[:k-1]
	}
	s.mu.Unlock()
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratch[T float](p *[]T) {
	s := scratchFor[T]()
	s.mu.Lock()
	s.free = append(s.free, p)
	s.mu.Unlock()
}

// gemmKernel calls the micro-kernel of T; n must be at least stripe[T]().
func gemmKernel[T float](c *T, ldc int, a *T, ars, aks int, b *T, ldb, m, n, kk int) {
	switch c := any(c).(type) {
	case *float32:
		gemm32(c, ldc, any(a).(*float32), ars, aks, any(b).(*float32), ldb, m, n, kk)
	case *float64:
		gemm64(c, ldc, any(a).(*float64), ars, aks, any(b).(*float64), ldb, m, n, kk)
	}
}

// gemmRows computes the m×n block c = A·B on the micro-kernel, with
// A[i][k] = a[i*ars+k*aks], B[k][j] = b[k*ldb+j] and c's row stride ldc; the
// slices start at element (0,0) of their block. A block narrower than one
// stripe is multiplied against a zero-padded copy of B into a stripe-wide
// scratch tile, so each element still comes out of the kernel's operation
// sequence.
func gemmRows[T float](c []T, ldc int, a []T, ars, aks int, b []T, ldb, m, n, kk int) {
	if m == 0 || n == 0 {
		return
	}
	if kk == 0 {
		for i := 0; i < m; i++ {
			clear(c[i*ldc : i*ldc+n])
		}
		return
	}
	w := stripe[T]()
	if n >= w {
		gemmKernel(&c[0], ldc, &a[0], ars, aks, &b[0], ldb, m, n, kk)
		return
	}
	s := getScratch[T]((kk + narrowRows) * w)
	defer putScratch(s)
	panel, tile := (*s)[:kk*w], (*s)[kk*w:]
	for k := 0; k < kk; k++ {
		row := panel[k*w : (k+1)*w]
		copy(row, b[k*ldb:k*ldb+n])
		clear(row[n:])
	}
	for i0 := 0; i0 < m; i0 += narrowRows {
		rows := min(narrowRows, m-i0)
		gemmKernel(&tile[0], w, &a[i0*ars], ars, aks, &panel[0], w, rows, w, kk)
		for i := 0; i < rows; i++ {
			copy(c[(i0+i)*ldc:(i0+i)*ldc+n], tile[i*w:])
		}
	}
}

// mulPanels computes out = a·B for row-major a (m×kk) and out (m×p) on the
// micro-kernel, where B is the row-major kk×p matrix b or, when bt is set,
// the transpose of the row-major p×kk matrix b. It packs B into k-major
// panels of btPanel columns, so the kernel streams contiguous memory instead
// of striding through b. Large products are split across GOMAXPROCS
// goroutines by panels of out, so each worker packs only its own columns.
func mulPanels[T float](out, a, b []T, m, kk, p int, bt bool) {
	panels := p / btPanel
	if serialMul(panels, m*kk*p) {
		mulPanelRange(out, a, b, kk, p, bt, 0, m, 0, p)
		return
	}
	// Chunks are whole panels; the last one also takes the p%btPanel tail,
	// so its overlapping final stripe never reaches into another worker's
	// columns.
	parallelRows(panels, func(lo, hi int) {
		c1 := hi * btPanel
		if hi == panels {
			c1 = p
		}
		mulPanelRange(out, a, b, kk, p, bt, 0, m, lo*btPanel, c1)
	})
}

// mulPanelRange computes the block rows [lo,hi) × columns [c0,c1) of
// out = a·B (see mulPanels): it packs btPanel columns of B at a time into a
// k-major panel (the B operand of the micro-kernel) and multiplies the rows
// of a against it. c1-c0 must be at least btPanel unless it is the whole of
// out's width; the last panel is shifted left to end at c1, overlapping its
// neighbour with bit-identical values.
func mulPanelRange[T float](out, a, b []T, kk, p int, bt bool, lo, hi, c0, c1 int) {
	if lo == hi {
		return
	}
	s := getScratch[T](kk * btPanel)
	defer putScratch(s)
	panel := *s
	for j := c0; j < c1; j += btPanel {
		j0 := max(c0, min(j, c1-btPanel))
		w := min(btPanel, c1-j0)
		if bt {
			packT(panel, b, kk, j0, w)
		} else {
			for k := 0; k < kk; k++ {
				copy(panel[k*btPanel:k*btPanel+w], b[k*p+j0:])
			}
		}
		gemmRows(out[lo*p+j0:], p, a[lo*kk:], kk, 1, panel, btPanel, hi-lo, w, kk)
	}
}

// packT packs columns [j0, j0+w) of bᵀ, for b with rows of length kk, into
// the k-major panel. It reads four rows of b at a time as sequential streams
// and writes four adjacent panel elements per k.
func packT[T float](panel, b []T, kk, j0, w int) {
	jj := 0
	for ; jj+4 <= w; jj += 4 {
		r0 := b[(j0+jj)*kk : (j0+jj+1)*kk]
		r1 := b[(j0+jj+1)*kk : (j0+jj+2)*kk][:len(r0)]
		r2 := b[(j0+jj+2)*kk : (j0+jj+3)*kk][:len(r0)]
		r3 := b[(j0+jj+3)*kk : (j0+jj+4)*kk][:len(r0)]
		for k, v := range r0 {
			d := panel[k*btPanel+jj : k*btPanel+jj+4]
			d[0], d[1], d[2], d[3] = v, r1[k], r2[k], r3[k]
		}
	}
	for ; jj < w; jj++ {
		for k, v := range b[(j0+jj)*kk : (j0+jj+1)*kk] {
			panel[k*btPanel+jj] = v
		}
	}
}
