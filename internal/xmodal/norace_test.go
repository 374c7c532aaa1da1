//go:build !race

package xmodal

const raceEnabled = false
