module outliner/benchmark

go 1.22

require outliner v0.0.0

replace outliner => ../
