! CFG fixture: a loop tested at the top. The header branches forward to
! `done` or falls into the body, and the body's unconditional `ba` back to the
! header leaves it a single taken edge. With the counter starting at the exit
! value the body never runs. Four blocks, no lint errors.
  .text
_start:
  mov 0, %g2
loop:
  cmp %g2, 0
  be done
  nop
  sub %g2, 1, %g2
  ba loop
  nop
done:
  ta 0
  nop
