//go:build !race

package spacetrack

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
