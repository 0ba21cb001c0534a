// The benchmark is a module of its own so it builds from its own
// directory; the replace directive (and the pds2/ import-path prefix)
// lets it import the node's internal packages from the checkout above.
module pds2/benchmark

go 1.22

require pds2 v0.0.0

replace pds2 => ../
