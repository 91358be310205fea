//go:build !(linux && (amd64 || arm64))

package main

// dropCached is a no-op where the benchmark does not call fadvise.
func dropCached(path string) {}
