package simwork

// burnLoop runs cost units of the burn loop and returns the accumulation,
// bit-identical to burnGo. It is assembly so that the modelled cost cannot
// move with code placement: compiled from Go, the loop was inlined at each
// caller, and whether its 38 bytes straddled a 64-byte line boundary —
// decided by how much code happened to precede it in the binary — changed
// its time per unit by up to 2×.
func burnLoop(cost int) float32
