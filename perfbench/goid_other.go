//go:build !amd64

package main

import (
	"runtime"
	"strconv"
	"strings"
)

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64)
	return id
}
