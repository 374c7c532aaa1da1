package remote

// Stage1FrameBudget exposes the client's stage-1 frame budget to the
// external test package, which sizes batches that must split around it.
const Stage1FrameBudget = stage1FrameBudget
