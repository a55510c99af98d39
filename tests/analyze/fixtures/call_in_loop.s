! CFG fixture: a loop whose body calls a leaf helper. The call couple ends
! its block with a call edge to the helper; the return site (call + 8) opens
! the latch block, whose bne branches back to the call. The helper ends at an
! indirect retl exit. Five blocks, no lint errors.
  .text
_start:
  mov 5, %g3
loop:
  call helper
  nop
  subcc %g3, 1, %g3
  bne loop
  nop
  ta 0
  nop
helper:
  add %g5, 1, %g5
  retl
  nop
