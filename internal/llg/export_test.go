package llg

// ParallelTestSolver exposes the fused-core fixture to the external
// tests that compare the fused core with the llgref oracle; an internal
// test cannot import llgref, which imports llg.
var ParallelTestSolver = parallelTestSolver
