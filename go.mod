module soc

go 1.24
