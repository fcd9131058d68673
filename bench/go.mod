module alpha/bench

go 1.22

require alpha v0.0.0

replace alpha => ../
