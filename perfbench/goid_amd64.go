package main

// curg returns the address of the running goroutine's descriptor. It
// identifies a goroutine for as long as it lives, at the cost of a
// register read.
func curg() uintptr

func goid() uint64 { return uint64(curg()) }
