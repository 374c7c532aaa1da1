// The performance gate is a module of its own so that the repo's tier-1
// `go build ./... && go test ./...` never compiles or runs it. The module
// path keeps the `repro/` prefix, which is what lets it import the repo's
// internal packages through the replace below.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
