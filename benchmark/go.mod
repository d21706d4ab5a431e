module pase/benchmark

go 1.24

require pase v0.0.0

replace pase => ../
