module svsim/bench

go 1.22

require svsim v0.0.0

replace svsim => ../
