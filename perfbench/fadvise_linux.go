//go:build linux && (amd64 || arm64)

package main

import (
	"os"
	"syscall"
)

// dropCached asks the kernel to evict the file's clean pages from the
// page cache (POSIX_FADV_DONTNEED).
func dropCached(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	const dontNeed = 4
	syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, dontNeed, 0, 0)
}
