module hssort/benchmark

go 1.24

require hssort v0.0.0

replace hssort => ../
