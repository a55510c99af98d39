! CFG fixture: two nested loops. The inner latch branches back to its own
! block; the outer latch branches back to the block that re-initialises the
! inner counter, so the inner loop is re-entered on every outer pass. Five
! blocks, no lint errors.
  .text
_start:
  mov 3, %g1
outer:
  mov 4, %g2
inner:
  add %g4, 1, %g4
  subcc %g2, 1, %g2
  bne inner
  nop
  subcc %g1, 1, %g1
  bne outer
  nop
  ta 0
  nop
