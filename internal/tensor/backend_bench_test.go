package tensor

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Kernel microbenchmarks per backend, mirroring the shapes pcbench's
// kernels experiment records into BENCH_kernels.json. Run with
// `go test -bench 'MatMul|MatVec|OutputHead|AttendRowBlock' ./internal/tensor/`.

func benchBackends(b *testing.B, run func(b *testing.B, bk Backend)) {
	for _, name := range Backends() {
		bk, err := Select(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { run(b, bk) })
	}
}

func BenchmarkMatMul(b *testing.B) {
	r := rng.NewString("bench/matmul")
	a, m := NewMatrix(128, 256), NewMatrix(256, 256)
	r.FillNormal(a.Data, 1)
	r.FillNormal(m.Data, 1)
	dst := NewMatrix(128, 256)
	benchBackends(b, func(b *testing.B, bk Backend) {
		for i := 0; i < b.N; i++ {
			bk.MatMul(dst, a, m)
		}
	})
}

func BenchmarkMatVec(b *testing.B) {
	r := rng.NewString("bench/matvect")
	w := NewMatrix(2048, 512)
	r.FillNormal(w.Data, 1)
	h := make([]float32, 2048)
	r.FillNormal(h, 1)
	dst := make([]float32, 512)
	benchBackends(b, func(b *testing.B, bk Backend) {
		for i := 0; i < b.N; i++ {
			bk.MatVecT(dst, w, h)
		}
	})
}

// BenchmarkOutputHead covers the lane counts a fused decode step
// actually carries: most batch-decode steps hold the 1–3 lanes whose
// drafts missed, where each logit's serial sum, not weight traffic,
// bounds the kernel.
func BenchmarkOutputHead(b *testing.B) {
	r := rng.NewString("bench/outputhead")
	const vocab, dim = 8192, 64
	emb := NewMatrix(vocab, dim)
	r.FillNormal(emb.Data, 1)
	for _, lanes := range []int{1, 2, 3, 4, 8} {
		hs := make([][]float32, lanes)
		dsts := make([][]float32, lanes)
		for k := range hs {
			hs[k] = make([]float32, dim)
			r.FillNormal(hs[k], 1)
			dsts[k] = make([]float32, vocab)
		}
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			benchBackends(b, func(b *testing.B, bk Backend) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.OutputHead(dsts, emb, hs)
				}
			})
		})
	}
}

func BenchmarkAttendRowBlock(b *testing.B) {
	r := rng.NewString("bench/attend")
	a := buildAttend(r, 32, 256, 4, 1, 16, false)
	benchBackends(b, func(b *testing.B, bk Backend) {
		for i := 0; i < b.N; i++ {
			bk.AttendRowBlock(a)
		}
	})
}

// BenchmarkAttendDecode is the decode shape of AttendRowBlock: one query
// row over a 330-row context, the batch-decode tail.
func BenchmarkAttendDecode(b *testing.B) {
	r := rng.NewString("bench/attend-decode")
	a := buildAttend(r, 1, 329, 4, 2, 16, false)
	benchBackends(b, func(b *testing.B, bk Backend) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bk.AttendRowBlock(a)
		}
	})
}

// BenchmarkMatVecTDecode is the per-lane projection shape of decode:
// the model's 64-wide hidden state through a 64×176 FFN matrix.
func BenchmarkMatVecTDecode(b *testing.B) {
	r := rng.NewString("bench/matvect-decode")
	w := NewMatrix(64, 176)
	r.FillNormal(w.Data, 1)
	h := make([]float32, 64)
	r.FillNormal(h, 1)
	dst := make([]float32, 176)
	benchBackends(b, func(b *testing.B, bk Backend) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bk.MatVecT(dst, w, h)
		}
	})
}
