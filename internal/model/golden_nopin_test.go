//go:build !amd64 || amd64.v3

package model

// logitsPinned disables TestGoldenLogits' bit-hash comparison where the
// compiler may fuse multiply-adds; see golden_pin_test.go.
const logitsPinned = false
