! CFG fixture: a one-block loop whose counter update sits in the delay slot
! of the latch branch. The slot of a non-annulling conditional retires on
! both the taken (back) and the untaken (exit) edge, so it stays inside the
! loop block. Three blocks, no lint errors.
  .text
_start:
  mov 6, %g2
loop:
  add %g4, 2, %g4
  cmp %g2, 1
  bne loop
  sub %g2, 1, %g2
  ta 0
  nop
