//go:build !amd64

package simwork

func burnLoop(cost int) float32 { return burnGo(cost) }
