package trace

// DecodeReference exposes the retained scanner decoder to the external
// benchmarks in bench_test.go, which import generators that import trace.
var DecodeReference = decodeReference
