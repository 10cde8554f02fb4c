module scmove/benchmark

go 1.23

require scmove v0.0.0

replace scmove => ../
