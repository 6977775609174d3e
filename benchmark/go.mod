// The benchmark is a module of its own so that the repository's tier-1
// build and tests never depend on it, and so that it keeps building from a
// plain source checkout. The module path sits under "morphstream/" on
// purpose: Go's internal-package rule is by import path, which lets
// benchmark/probe (and only it) call morphstream/internal/... directly.
module morphstream/benchmark

go 1.24

require morphstream v0.0.0

replace morphstream => ../
