//go:build (!amd64 && !arm64) || purego

package mat

func dot4rows(dst []float32, q, block []float32) { dot4rowsGeneric(dst, q, block) }

func dot8rows(dst []float32, q, block []float32) { dot8rowsGeneric(dst, q, block) }

func axpyKernel(dst []float32, alpha float32, x []float32) { axpyGeneric(dst, alpha, x) }

func gemmTiles(dst []float32, ldd int, a []float32, lda int, b []float32, ldb int, m, n, k int) (mt, nt int) {
	return 0, 0
}
