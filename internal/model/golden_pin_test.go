//go:build amd64 && !amd64.v3

package model

// logitsPinned enables TestGoldenLogits' bit-hash comparison: on amd64
// below GOAMD64=v3 the compiler emits no fused multiply-adds, so every
// float32 sum rounds exactly as written.
const logitsPinned = true
